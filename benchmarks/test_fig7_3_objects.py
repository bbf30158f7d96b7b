"""Reproduce Figure 7.3: scalability with the number of objects (N).

Paper shapes verified (Section 7.3), at bench scale:
* (a) SRB server CPU grows sublinearly with N (incrementally maintained
  cell index); PRD CPU grows steeply (per-period cell-index rebuild
  over all N points plus evaluation; the kNN browse's flat share keeps
  it below linear at bench scale).
* (b) communication: OPT < SRB everywhere, and SRB below PRD(0.1) from
  the base density upwards.  At bench scale SRB's *per-client* cost
  decreases with N: the maintained kNN result population is fixed by W,
  so total churn is roughly constant and dilutes over more clients.  (The
  paper reports a sublinear *increase* — their W scales the churn into
  every cell; see EXPERIMENTS.md.)
"""

from conftest import run_figure

from repro.baselines import PRDSimulation
from repro.experiments import figures
from repro.experiments.runner import build_truth

OBJECT_COUNTS = (300, 600, 1200, 2400)


def least_prd_cpu(n, figure_reading, reruns=2):
    """PRD(0.1) CPU per time unit at ``n`` objects, least of three runs.

    One wall-time reading per point wobbles ~2x on a loaded host, so the
    figure's reading is joined by ``reruns`` more over the same world.
    """
    scenario = figures.BENCH_BASE.with_overrides(num_objects=n)
    truth = build_truth(scenario)
    readings = [figure_reading] + [
        PRDSimulation(scenario, t_prd=0.1, truth=truth).run()
        .cpu_seconds_per_time
        for _ in range(reruns)
    ]
    return min(readings)


def test_fig7_3_objects(benchmark):
    result = run_figure(
        benchmark, figures.figure_7_3, object_counts=OBJECT_COUNTS
    )

    def series(scheme, metric):
        rows = [r for r in result.rows if r["scheme"] == scheme]
        return [r[metric] for r in sorted(rows, key=lambda r: r["N"])]

    growth = OBJECT_COUNTS[-1] / OBJECT_COUNTS[0]  # 8x objects

    # (a) SRB CPU grows clearly sublinearly in N (generous envelope:
    # wall-time measurements wobble with machine load).
    srb_cpu = series("SRB", "cpu_seconds_per_time")
    assert srb_cpu[-1] < 0.75 * growth * srb_cpu[0]

    # (a) PRD CPU grows steeply with N (rebuild per period).
    prd_cpu = [
        least_prd_cpu(n, reading) for n, reading in
        zip(OBJECT_COUNTS, series("PRD(0.1)", "cpu_seconds_per_time"))
    ]
    assert prd_cpu[-1] > 3.0 * prd_cpu[0]
    # ... and much faster than SRB's.
    assert prd_cpu[-1] / prd_cpu[0] > srb_cpu[-1] / srb_cpu[0]

    # (b) OPT below SRB everywhere; SRB below PRD(0.1) from base density.
    srb_comm = series("SRB", "comm_cost")
    prd_comm = series("PRD(0.1)", "comm_cost")
    opt_comm = series("OPT", "comm_cost")
    for srb, opt in zip(srb_comm, opt_comm):
        assert opt < srb
    for n, srb, prd in zip(OBJECT_COUNTS, srb_comm, prd_comm):
        if n >= 1200:
            assert srb < prd

    # Accuracy stays high across the sweep and beats PRD(0.1).
    srb_acc = series("SRB", "accuracy")
    prd_acc = series("PRD(0.1)", "accuracy")
    assert min(srb_acc) > 0.9
    assert sum(srb_acc) > sum(prd_acc)

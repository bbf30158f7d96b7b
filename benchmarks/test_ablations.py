"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these quantify decisions the paper argues
for (the batch range-region algorithm of Section 5.3) by toggling them
off and measuring the cost on the base scenario.
"""

from conftest import SCRATCH_DIR

from repro.experiments.figures import BENCH_BASE
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_truth
from repro.simulation.engine import SRBSimulation
from repro.workloads.generator import generate_queries

# A range-heavy workload makes the batch ablation meaningful.
ABLATION_BASE = BENCH_BASE.with_overrides(duration=3.0)


def _run(scenario, truth):
    queries = generate_queries(scenario.workload(), seed=scenario.seed)
    return SRBSimulation(scenario, queries=queries, truth=truth).run()


def test_ablations(benchmark):
    def run_all():
        truth = build_truth(ABLATION_BASE)
        variants = {
            "default": ABLATION_BASE,
            "no-batch-range": ABLATION_BASE.with_overrides(
                batch_range_regions=False
            ),
        }
        return {name: _run(sc, truth) for name, sc in variants.items()}

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        {
            "variant": name,
            "accuracy": report.accuracy,
            "comm_cost": report.comm_cost,
            "updates": report.costs.updates,
            "probes": report.costs.probes,
        }
        for name, report in reports.items()
    ]
    table = format_table(rows, title="Ablations (base scenario)")
    print()
    print(table)
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    (SCRATCH_DIR / "ablations.txt").write_text(table + "\n")

    default = reports["default"]
    # Correctness is never traded: every variant stays accurate (the
    # ablated parts are about cost, not soundness).
    for name, report in reports.items():
        assert report.accuracy > 0.9, name

    # Dropping the batch algorithm must not *help*: strip-intersection
    # regions are never longer-perimeter than the greedy union's.
    assert reports["no-batch-range"].comm_cost >= 0.95 * default.comm_cost

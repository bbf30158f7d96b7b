"""Reproduce Figure 7.6: the Section 6 enhancements.

Paper shapes to verify (Section 7.5):
* (a) the reachability circle (maximum-speed assumption) cuts
  communication cost — the paper reports 20-40%; measured during
  monitoring (start-up sends no probes) both the paper's
  decide-but-don't-install semantics and the exactness-preserving
  variant save 13-21% up to W = 40 — with the gain shrinking as W grows
  (smaller safe regions are outgrown by the ever-expanding circle
  sooner);
* (b) the weighted perimeter (steady-movement assumption, D = 0.5) helps
  for steady movement (larger t_v-bar) and may hurt when direction
  changes constantly.
"""

from conftest import run_figure

from repro.experiments import figures

QUERY_COUNTS = (10, 20, 40, 80)
PERIODS = (0.05, 0.2, 0.5, 1.0)


def test_fig7_6a_reachability(benchmark):
    result = run_figure(
        benchmark, figures.figure_7_6a, query_counts=QUERY_COUNTS
    )
    rows = sorted(result.rows, key=lambda r: r["W"])

    # Under the paper's semantics the savings reach the low end of the
    # reported 20-40% (measured 16.5 / 19.8 / 19.0 / 3.9%; the 31-56%
    # this bench used to see were objects left without first regions by
    # per-query registration at t = 0 — EXPERIMENTS.md, Fig 7.6).
    mean_paper = sum(r["improve_paper_pct"] for r in rows) / len(rows)
    assert mean_paper > 10.0

    # The exactness-preserving variant is never the less accurate one.
    for row in rows:
        assert row["acc_exact"] >= row["acc_paper"]
        assert row["acc_exact"] > 0.9

    # The exact variant still helps where safe regions are large (low W);
    # its benefit fades as W grows (the paper's own trend).
    assert rows[0]["improve_exact_pct"] > 0.0
    assert rows[0]["improve_exact_pct"] >= rows[-1]["improve_exact_pct"]


def test_fig7_6b_weighted_perimeter(benchmark):
    result = run_figure(benchmark, figures.figure_7_6b, periods=PERIODS)
    rows = sorted(result.rows, key=lambda r: r["t_v_mean"])
    # For the steadiest movement the weighted perimeter must not lose
    # noticeably; the paper reports gains of 5-15% there.
    steady = rows[-1]
    assert steady["improvement_pct"] > -5.0
    # Across the sweep the enhancement is at worst mildly harmful.
    assert min(r["improvement_pct"] for r in rows) > -25.0

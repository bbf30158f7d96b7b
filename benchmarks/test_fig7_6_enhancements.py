"""Reproduce Figure 7.6: the Section 6 enhancements.

Paper shapes to verify (Section 7.5):
* (a) the reachability circle (maximum-speed assumption) cuts
  communication cost — the paper reports 20-40%.  Here it saved 13-21%
  up to W = 40 for as long as non-result safe regions touched the
  quarantine circles: every point of that was probes of the touching
  ring.  With the outsider standoff (DESIGN.md §6 item 3) plain SRB no
  longer sends those probes, and with room in every kNN region (item 1)
  it sends half the reports; the enhancement is left at +0.1-1.5%
  (decisive tightenings installed and pushed) or -3 to -20% (the paper's
  decide-but-don't-install semantics: about the same extra reports over
  half the base);
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

    # The paper's semantics used to save 16.5 / 19.8 / 19.0 / 3.9% here
    # (asserted as mean > 10) — all of it probes: at W = 40 the circle
    # took plain SRB's 7,089 probes to 1,689 for 2,371 extra updates.
    # Outsider regions now keep a standoff from the quarantine circle,
    # plain SRB sends 1,776 probes, and the variant is left with its
    # extra updates: measured -0.9 / -3.5 / -6.9 / -7.3% (asserted as
    # mean > -10).  Room in the kNN regions then halved plain SRB's
    # reports (W = 40: 20,762 -> 9,784) but not the variant's surplus
    # (2,265 -> 2,861 extra reports), so the same loss reads
    # -2.7 / -9.9 / -20.1 / -19.4% of a smaller base (EXPERIMENTS.md,
    # Fig 7.6).  What remains to pin is that it stays a bounded loss.
    mean_paper = sum(r["improve_paper_pct"] for r in rows) / len(rows)
    assert mean_paper > -20.0

    # Both variants monitor as accurately as each other.  (This read
    # "exact is never the less accurate one" while they differed by
    # whole points at start-up; they now differ by at most 0.001, in
    # either direction.)
    for row in rows:
        assert abs(row["acc_exact"] - row["acc_paper"]) < 0.002
        assert row["acc_exact"] > 0.9

    # Installing and pushing the decisive tightenings never costs more
    # than plain SRB: +0.1 / 1.5 / 0.3 / 0.7% (+0.8 / 3.1 / 3.3 / 3.0%
    # before room halved the reports its saved probes are weighed
    # against).  (The benefit used to be largest at low W and fade as W
    # grew; that trend was the probe ring's and went with it.)
    assert all(row["improve_exact_pct"] > 0.0 for row in rows)


def test_fig7_6b_weighted_perimeter(benchmark):
    result = run_figure(benchmark, figures.figure_7_6b, periods=PERIODS)
    rows = sorted(result.rows, key=lambda r: r["t_v_mean"])
    # For the steadiest movement the weighted perimeter must not lose
    # noticeably; the paper reports gains of 5-15% there.
    steady = rows[-1]
    assert steady["improvement_pct"] > -5.0
    # Across the sweep the enhancement is at worst mildly harmful.
    assert min(r["improvement_pct"] for r in rows) > -25.0

"""Reproduce Figure 7.5: sensitivity to the grid partitioning (M).

Paper shapes to verify (Section 7.4):
* communication cost increases with M — the grid cell caps the largest
  possible safe region — gently over the useful range and sharply once
  cells shrink below the query-driven region size;
* server CPU time decreases with M — smaller cells mean fewer relevant
  queries per safe-region computation (asserted per message, see below).
"""

from conftest import run_figure

from repro.experiments import figures

GRID_SIZES = (5, 10, 15, 30, 60, 150)


def test_fig7_5_grid(benchmark):
    result = run_figure(benchmark, figures.figure_7_5, grid_sizes=GRID_SIZES)
    rows = sorted(result.rows, key=lambda r: r["M"])
    costs = [r["comm_cost"] for r in rows]
    cpu = [r["cpu_seconds_per_time"] for r in rows]

    # The cost curve rises with M, as the paper draws it: the fine-grid
    # penalty (cells cap the safe regions) is sharp.  It used to be
    # U-shaped here, ``costs[0] > minimum``: a coarse-grid penalty of
    # +53 % at M = 5 that turned out to be probes of the touching ring
    # (gone with the outsider standoff, 6.7 -> 3.93 against a valley of
    # 3.90) and then re-reports of regions left within one poll (gone
    # with room, DESIGN.md §6 item 1: 2.018 at M = 5, the cheapest of
    # the sweep).  What remains to pin is that a coarse grid costs no
    # more than a hair over the best.
    minimum = min(costs)
    assert costs[0] <= 1.05 * minimum
    assert costs[-1] > 1.5 * minimum

    # CPU time per message trends downwards as cells shrink — the
    # paper's mechanism, fewer relevant queries per safe-region
    # computation.  (This read ``cpu[-1] < cpu[0]`` on the totals while
    # the coarse grid sent as many reports as the fine one; M = 150 now
    # sends 2.1 times the messages of M = 5, so the total is a falling
    # per-report cost times a rising count and sits inside host noise:
    # 0.25 -> 0.21, 0.31 -> 0.30, 0.26 -> 0.30 s/unit on three runs.)
    assert cpu[-1] / costs[-1] < cpu[0] / costs[0]

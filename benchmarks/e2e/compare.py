#!/usr/bin/env python3
"""Judge a change against its parent on the e2e ladder.

    python3 benchmarks/e2e/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are each a result document written by
``run.py`` (a ladder ``out/e2e_seed<S>.json`` or a calibration
``set_<X>.json``) or a directory of ladder documents, read in seed
order.  The i-th run of one side is paired with the i-th run of the
other, so produce them in alternating order (README.md, "Claiming a
gain").  One row per workload x end-to-end metric, by the rule of the
choosing-metrics guide:

* ``gain`` / ``loss`` — one side wins at least nine tenths of the pairs
  (ties count for neither), the medians differ by more than the distance
  between the parent's own quartiles, and there are at least ten pairs;
* ``REGRESSION`` — the change's median is worse than the parent's by
  more than the bound in ``BENCHMARK.json`` (exit code 1);
* ``unresolved`` — the parent's own spread is wider than the bound (and
  not every run of the change beats every run of the parent), or a win
  rests on fewer than ten pairs;
* ``within bound`` — none of the above.  Never "unchanged".
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

from stats import quartiles, spread, worse_by

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: pathlib.Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [one value per run]}}`` from a file or directory."""
    if path.is_dir():
        files = sorted(
            path.glob("e2e_seed*.json"),
            key=lambda p: int(re.search(r"seed(\d+)", p.name).group(1)),
        )
    else:
        files = [path]
    if not files:
        raise SystemExit(f"compare.py: no result documents in {path}")
    values: dict[str, dict[str, list[float]]] = {}
    for file in files:
        document = json.loads(file.read_text())
        for workload, body in document["workloads"].items():
            into = values.setdefault(workload, {})
            if "set" in document:        # calibration set: a list of runs
                for run in body:
                    for metric, value in run["metrics"].items():
                        into.setdefault(metric, []).append(value)
            else:                        # ladder document
                for metric, row in body["end_to_end"].items():
                    into.setdefault(metric, []).extend(row["values"])
    return values


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The row's judgement; ``a`` is the parent, ``b`` the change."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins_b = sum(sign * (y - x) > 0 for x, y in pairs)
    wins_a = sum(sign * (x - y) > 0 for x, y in pairs)
    decided = wins_a + wins_b
    q1, median_a, q3 = quartiles(a)
    median_b = quartiles(b)[1]
    clear = abs(median_b - median_a) > q3 - q1
    worse = worse_by(median_a, median_b, better)
    if decided and clear and wins_b >= WIN_SHARE * decided:
        return "gain" if len(pairs) >= MIN_PAIRS else "unresolved"
    if worse > bound:
        return "REGRESSION"
    if decided and clear and wins_a >= WIN_SHARE * decided:
        return "loss" if len(pairs) >= MIN_PAIRS else "unresolved"
    clean_sweep = min(b) > max(a) if better == "higher" else max(b) < min(a)
    if spread(a) > bound and not clean_sweep:
        return "unresolved"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(pathlib.Path(arg)) for arg in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':<22} {'metric':<20} {'parent':>13} {'[q1, q3]':>24} "
          f"{'change':>13} {'worse by':>9} {'bound':>6} {'pairs':>5}  verdict")
    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = parent[workload][name], change[workload][name]
            q1, median_a, q3 = quartiles(a)
            median_b = quartiles(b)[1]
            row = verdict(a, b, metric["better"], metric["bound"])
            regressed |= row == "REGRESSION"
            print(
                f"{workload:<22} {name:<20} {median_a:>13.6g} "
                f"{f'[{q1:.5g}, {q3:.5g}]':>24} {median_b:>13.6g} "
                f"{worse_by(median_a, median_b, metric['better']):>+9.4f} "
                f"{metric['bound']:>6} {min(len(a), len(b)):>5}  {row}"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

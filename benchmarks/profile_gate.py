#!/usr/bin/env python3
"""CI gate for the tick-phase profiler (docs/OBSERVABILITY.md).

Two subcommands, both exercised by the ``profile-smoke`` workflow job:

``verify <profile.json> [--shards N]``
    Structural health of a ``repro profile --profile-out`` report: at
    least one tick was profiled, the per-phase budget closes (phase
    self-times sum to the attributed wall clock within 10%), and — for
    sharded runs — the report carries one aggregated sub-report per
    shard.

``gate [--pairs N] [--threshold F]``
    The profiler's two contract guarantees on the bench-base smoke
    scenario (N=300, W=24, T=3):

    * **bit-identity** — enabling the profiler must not perturb the
      simulation: every deterministic field of the scheme report
      (accuracy, comm cost, update/probe/push counts, ...) is compared
      between a disabled and an enabled run and must match exactly.
      The committed bench baselines pin the same determinism claim
      (``"equivalent": true``), so the gate also refuses to run against
      a tree whose pins are already broken.
    * **overhead** — the enabled profiler must cost < ``--threshold``
      (default 5%) CPU versus disabled.  Timings alternate
      disabled/enabled runs and compare min-of-N ``process_time``:
      minimums, not means, because shared CI runners add one-sided
      noise that a mean would count as profiler overhead.

Exit code 0 on pass, 1 on any violation (with a diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

#: Report fields excluded from the bit-identity comparison: wall-clock
#: derived (cpu_s_per_time) or only present on profiled runs (profile).
NONDETERMINISTIC_FIELDS = ("cpu_s_per_time", "profile")

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def _fail(message: str) -> int:
    print(f"profile_gate: FAIL: {message}", file=sys.stderr)
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    report = json.loads(pathlib.Path(args.report).read_text())
    ticks = report.get("ticks", 0)
    if ticks <= 0:
        return _fail(f"{args.report}: no ticks profiled")
    wall = report.get("wall_seconds", 0.0)
    phases = report.get("phases", {})
    if not phases or wall <= 0.0:
        return _fail(f"{args.report}: empty phase table")
    total = sum(phases.values())
    drift = abs(total - wall) / wall
    if drift > 0.10:
        return _fail(
            f"{args.report}: phase budget does not close: "
            f"sum(phases)={total:.6f}s vs wall={wall:.6f}s "
            f"({drift:.1%} drift)"
        )
    if args.shards:
        shards = report.get("shards")
        if not isinstance(shards, dict) or len(shards) != args.shards:
            found = sorted(shards) if isinstance(shards, dict) else shards
            return _fail(
                f"{args.report}: expected {args.shards} per-shard "
                f"sub-reports, found {found!r}"
            )
    print(
        f"profile_gate: {args.report} OK — {ticks} ticks, "
        f"{len(phases)} phases, budget drift {drift:.2%}"
    )
    return 0


def _run_once(profile: bool):
    from repro.experiments import figures
    from repro.simulation import SRBSimulation

    scenario = figures.BENCH_BASE.with_overrides(
        num_objects=300, num_queries=24, duration=3.0
    )
    start = time.process_time()
    report = SRBSimulation(scenario, profile=profile).run()
    elapsed = time.process_time() - start
    row = {
        key: value
        for key, value in report.row().items()
        if key not in NONDETERMINISTIC_FIELDS
    }
    return row, elapsed


def _check_committed_pins() -> int:
    for name in ("BENCH_shards.json",):
        path = RESULTS_DIR / name
        if not path.exists():
            continue
        if not json.loads(path.read_text()).get("equivalent"):
            return _fail(f"committed pin {name} is not equivalent:true")
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    status = _check_committed_pins()
    if status:
        return status

    base_row, _ = _run_once(profile=False)
    prof_row, _ = _run_once(profile=True)
    if base_row != prof_row:
        diff = {
            key: (base_row.get(key), prof_row.get(key))
            for key in sorted(set(base_row) | set(prof_row))
            if base_row.get(key) != prof_row.get(key)
        }
        return _fail(f"profiled run perturbed the simulation: {diff}")
    print("profile_gate: bit-identity OK — profiled report matches disabled")

    base_times, prof_times = [], []
    for _ in range(args.pairs):
        base_times.append(_run_once(profile=False)[1])
        prof_times.append(_run_once(profile=True)[1])
    overhead = min(prof_times) / min(base_times) - 1.0
    print(
        f"profile_gate: overhead {overhead:+.2%} "
        f"(min-of-{args.pairs}: disabled {min(base_times):.4f}s, "
        f"enabled {min(prof_times):.4f}s; gate < {args.threshold:.0%})"
    )
    if overhead >= args.threshold:
        return _fail(
            f"enabled-profiler overhead {overhead:+.2%} exceeds "
            f"{args.threshold:.0%} gate"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="structural check of a report")
    verify.add_argument("report", help="path to a --profile-out JSON")
    verify.add_argument(
        "--shards", type=int, default=0,
        help="expect this many per-shard sub-reports (0 = single server)",
    )
    verify.set_defaults(fn=cmd_verify)

    gate = sub.add_parser("gate", help="bit-identity + overhead gate")
    gate.add_argument("--pairs", type=int, default=7)
    gate.add_argument("--threshold", type=float, default=0.05)
    gate.set_defaults(fn=cmd_gate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

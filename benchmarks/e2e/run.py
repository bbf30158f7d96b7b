#!/usr/bin/env python3
"""The repo's benchmark: closed-loop ladder, four workloads (README.md).

Three ways to call it, all from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
    One measured run in this process — what the benchmark driver calls.
    Prints every metric by name with its unit, a ``detail`` line, and as
    the last line the result object ``{correct, attempted, failed,
    metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer
    metrics with ``--trace 1`` (which also writes
    ``out/trace_<workload>.jsonl``).

``python3 benchmarks/e2e/run.py [--seed S] [--workload W] [--smoke]``
    The ladder: per workload, ``--repeats`` untraced runs and one traced
    run, each in a fresh subprocess, one at a time; medians and
    quartiles, the determinism gate, every correctness check.  Writes
    ``out/e2e_seed<S>.json`` and exits non-zero if anything failed.

``python3 benchmarks/e2e/run.py --calibrate``
    Two full sets (ten seeds per workload) on this commit; checks that
    they agree, writes them to ``calibration/`` and the noise-derived
    regression bounds into ``BENCHMARK.json``.

Metric names, units, directions and bounds live in the root
``BENCHMARK.json`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys

from stats import quartiles, spread, worse_by

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
CALIBRATION_DIR = HERE / "calibration"

SMOKE_SECONDS = 2
CALIBRATION_SEEDS = tuple(range(1, 11))
#: The issue's starting bounds; calibration may only widen them.
DEFAULT_BOUNDS = {
    "setup_s": 0.15, "run_s": 0.08, "updates_per_s": 0.08,
    "report_lat_med_us": 0.10, "report_lat_tail_us": 0.10,
    "accuracy": 0.002, "comm_cost": 0.01, "peak_rss_mb": 0.10,
}
#: The driver refuses a bound above this, and wants every observed
#: spread below a third of its bound.
MAX_BOUND = 0.25
SPREAD_HEADROOM = 3.0
#: Reads that must repeat bit-for-bit for one (workload, seed).
EXACT = ("comm.updates", "comm.probes", "accuracy", "comm_cost",
         "server.update_calls")


def _print_metrics(metrics: dict) -> None:
    for name, reading in metrics.items():
        print(f"{name:<36} {reading['value']:>18.6f} {reading['unit']}")


# ---------------------------------------------------------------------------
# One run, in this process


def run_once(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    workload = workloads.BY_NAME[args.workload]
    reference = args.reference_run_s
    if args.trace and reference is None:
        # The untraced run the overhead is measured against: same inputs,
        # fresh process, finished before the traced run starts.
        _, final = spawn(workload.name, args.seed, args.seconds, args.smoke)
        reference = final["metrics"]["run_s"]["value"]
    result = measure.measure(
        workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if args.trace:
        values = result.pop("per_layer")
        values["obs.trace_overhead"] = (
            result["end_to_end"]["run_s"] / reference - 1.0
        )
        OUT_DIR.mkdir(exist_ok=True)
        result.pop("span_log").write_jsonl(
            OUT_DIR / f"trace_{workload.name}.jsonl"
        )
        listing = spec["per_layer"]
    else:
        values = result["end_to_end"]
        listing = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listing
    }
    _print_metrics(metrics)
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    n, w = workloads.sizes(workload, args.smoke)
    detail = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "trace": args.trace,
        "num_objects": n, "num_queries": w,
        "tail_percentile": workload.tail_percentile,
        **result,
    }
    print("detail " + json.dumps(detail))
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


def spawn(
    workload: str, seed: int, seconds: float, smoke: bool,
    trace: int = 0, reference_run_s: float | None = None,
) -> tuple[dict, dict]:
    """One run in a fresh process; returns its ``(detail, result)``."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if reference_run_s is not None:
        command += ["--reference-run-s", repr(reference_run_s)]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode} without a result"
        )
    detail = next(
        json.loads(line[len("detail "):])
        for line in reversed(lines) if line.startswith("detail ")
    )
    return detail, json.loads(lines[-1])


# ---------------------------------------------------------------------------
# The ladder


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def _summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit, "values": values}


def ladder_rung(name: str, spec: dict, seed, seconds, smoke, repeats) -> dict:
    """All runs of one workload: untraced repeats, then one traced run."""
    details, finals = [], []
    for _ in range(repeats):
        detail, final = spawn(name, seed, seconds, smoke)
        details.append(detail)
        finals.append(final)
    run_s = _summary([f["metrics"]["run_s"]["value"] for f in finals], "s")
    traced_detail, traced = spawn(
        name, seed, seconds, smoke, trace=1, reference_run_s=run_s["median"]
    )
    failures = [
        f"repeat {i}: {failure}"
        for i, d in enumerate(details + [traced_detail])
        for failure in d["failures"]
    ]
    for key in EXACT:
        reads = {json.dumps(d["exact"][key]) for d in details + [traced_detail]}
        if len(reads) > 1:
            failures.append(
                f"determinism gate: {key} differs between runs of seed "
                f"{seed} (the last one traced): {sorted(reads)}"
            )
    return {
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "num_objects": details[0]["num_objects"],
        "num_queries": details[0]["num_queries"],
        "tail_percentile": details[0]["tail_percentile"],
        "latency_samples": details[0]["latency_samples"],
        "exact": details[0]["exact"],
        "traced_run_wall_s": traced_detail["run"]["wall_s"],
        "ops_attempted": sum(f["attempted"] for f in finals + [traced]),
        "ops_failed": len(failures),
        "failures": failures,
        "end_to_end": {
            m["name"]: _summary(
                [f["metrics"][m["name"]]["value"] for f in finals], m["unit"]
            )
            for m in spec["end_to_end"]
        },
        "per_layer": traced["metrics"],
    }


def run_ladder(args, spec: dict) -> int:
    seconds = args.seconds or (
        SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    )
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]
    document = {
        "benchmark": "e2e", "seed": args.seed, "seconds": seconds,
        "smoke": args.smoke, "repeats": args.repeats,
        "environment": environment(), "workloads": {},
    }
    for name in names:
        rung = ladder_rung(
            name, spec, args.seed, seconds, args.smoke, args.repeats
        )
        document["workloads"][name] = rung
        print(f"\n== {name}: N={rung['num_objects']} W={rung['num_queries']} "
              f"seed={args.seed} — median [q1, q3] of {args.repeats} runs")
        for metric, row in rung["end_to_end"].items():
            print(f"{metric:<36} {row['median']:>18.6f} {row['unit']:<10}"
                  f" [{row['q1']:.6g}, {row['q3']:.6g}]")
        print(f"{'ops_attempted':<36} {rung['ops_attempted']:>18}")
        print(f"{'ops_failed':<36} {rung['ops_failed']:>18}")
        print(f"-- per layer (one traced run; tail = p{rung['tail_percentile']}"
              f" of {rung['latency_samples']} samples)")
        _print_metrics(rung["per_layer"])
        for failure in rung["failures"]:
            print(f"FAILED {failure}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"e2e_seed{args.seed}{'_smoke' if args.smoke else ''}.json"
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    failed = sum(r["ops_failed"] for r in document["workloads"].values())
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Noise calibration


def calibration_set(spec: dict, label: str, smoke: bool) -> dict:
    """Ten seeds of every workload, the way the driver samples them."""
    seconds = SMOKE_SECONDS if smoke else spec["run_seconds"]
    document = {
        "set": label, "seconds": seconds, "smoke": smoke,
        "seeds": list(CALIBRATION_SEEDS), "environment": environment(),
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = []
        for seed in CALIBRATION_SEEDS:
            detail, final = spawn(name, seed, seconds, smoke)
            runs.append({
                "seed": seed,
                "exact": detail["exact"],
                "failures": detail["failures"],
                "worst_checkpoint": min(detail["checkpoint_accuracy"]),
                "metrics": {k: v["value"] for k, v in final["metrics"].items()},
            })
            print(f"set {label} {name} seed {seed}: "
                  f"run_s {runs[-1]['metrics']['run_s']:.3f}", flush=True)
        document["workloads"][name] = runs
    return document


def calibrate(args, spec: dict) -> int:
    sets = [calibration_set(spec, label, args.smoke) for label in "AB"]
    problems = []
    for name in sets[0]["workloads"]:
        for a, b in zip(sets[0]["workloads"][name], sets[1]["workloads"][name]):
            if a["exact"] != b["exact"]:
                problems.append(
                    f"{name} seed {a['seed']}: exact counts differ between "
                    f"sets: {a['exact']} vs {b['exact']}"
                )
            problems += [
                f"{name} seed {r['seed']}: {failure}"
                for r in (a, b) for failure in r["failures"]
            ]
    print(f"\n{'workload':<22} {'metric':<20} {'median A':>14} "
          f"{'spread A':>9} {'spread B':>9} {'B worse by':>11}")
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        widest, drifts = 0.0, []
        for workload, runs in sets[0]["workloads"].items():
            a = [r["metrics"][name] for r in runs]
            b = [r["metrics"][name] for r in sets[1]["workloads"][workload]]
            median_a = quartiles(a)[1]
            drift = worse_by(median_a, quartiles(b)[1], better)
            print(f"{workload:<22} {name:<20} {median_a:>14.6g} "
                  f"{spread(a):>9.4f} {spread(b):>9.4f} {drift:>+11.4f}")
            widest = max(widest, spread(a), spread(b))
            drifts.append((workload, drift))
        metric["bound"] = round(min(
            MAX_BOUND, max(DEFAULT_BOUNDS[name], SPREAD_HEADROOM * widest)
        ), 3)
        if name != "setup_s" and widest > metric["bound"]:
            problems.append(
                f"{name}: spread {widest:.4f} exceeds the bound "
                f"{metric['bound']}"
            )
        problems += [
            f"{name} on {workload}: set B's median is worse than set A's "
            f"by {drift:.4f}, more than the bound {metric['bound']}"
            for workload, drift in drifts if drift > metric["bound"]
        ]
    for problem in problems:
        print(f"FAILED {problem}")
    if not args.smoke:
        CALIBRATION_DIR.mkdir(exist_ok=True)
        for document in sets:
            path = CALIBRATION_DIR / f"set_{document['set']}.json"
            path.write_text(json.dumps(document, indent=1) + "\n")
        SPEC_PATH.write_text(json.dumps(spec, indent=2) + "\n")
        print("wrote calibration/set_A.json, set_B.json and the bounds in "
              "BENCHMARK.json")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the measured period the work is "
                             "sized for (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="measure once, here; 1 records spans")
    parser.add_argument("--smoke", action="store_true",
                        help="N and W divided by 10, 2-second periods")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload in the ladder")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--reference-run-s", type=float,
                        help="untraced run_s the traced run's overhead is "
                             "taken against (default: measure one)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"run.py: no program to measure: {ROOT}/src/repro and "
              f"{SPEC_PATH} must exist", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"--workload must be one of {', '.join(known)}")
    if args.calibrate:
        return calibrate(args, spec)
    if args.trace is None:
        return run_ladder(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())

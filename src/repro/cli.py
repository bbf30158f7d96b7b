"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compare`` — run SRB / OPT / PRD side by side over one scenario and
  print the accuracy / cost / CPU table.
* ``figure``  — regenerate one of the paper's figures (7.1 … 7.6b) and
  print its series.
* ``sweep``   — sweep any scenario parameter for any scheme subset.
* ``theorem`` — check Theorem 5.1's escape-time estimate against the
  exact Monte-Carlo value for a given region and start point.
* ``stats``   — render a metrics file (``--metrics-out`` /
  ``bench_metrics.json``) as human-readable tables.
* ``events``  — read a recorded event stream (``--events-out`` /
  flight-recorder JSONL), with filters and causal-chain rendering.
* ``monitor`` — aggregate an event stream (recorded, or from a live SRB
  run) into a per-interval timeline table.
* ``diagnose`` — replay an event stream against the framework's
  invariants and report violations/anomalies (exit 1 on violations).
* ``profile`` — run the SRB scheme with the tick-phase profiler
  attached and print where the time goes: the phase-budget table, the
  top-k hotspot tables, and the cell-occupancy skew.  ``--folded-out``
  writes collapsed-stack lines (flamegraph.pl / speedscope input),
  ``--profile-out`` the JSON phase-budget report.  Works identically
  with ``--shards N`` (per-shard summaries are merged).

All simulation commands accept ``--objects/--queries/--duration/--seed``
style overrides of the laptop-scale defaults; ``compare --metrics-out
FILE`` additionally records per-phase span timings and counters
(docs/OBSERVABILITY.md describes the vocabulary) plus per-checkpoint
time series, and ``compare --events-out/--flight-recorder`` records the
structured-event stream of the SRB scheme.  ``--faults
drop=0.05,dup=0.02,delay=2 --fault-seed N`` injects deterministic
channel/probe faults into the SRB run (docs/ROBUSTNESS.md); pipe the
resulting recorder through ``diagnose`` to check the robustness
invariants.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import expected_escape_time, simulate_escape_time
from repro.experiments import figures, format_table, run_schemes, sweep
from repro.faults import FaultPlan
from repro.geometry import Point, Rect
from repro.obs import (
    EventLog,
    causal_chain,
    diagnose,
    filter_events,
    folded_lines,
    load_metrics,
    read_events,
    render_document,
    render_profile,
    timeline,
    write_json,
)
from repro.simulation import Scenario, SRBSimulation


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    base = figures.BENCH_BASE
    parser.add_argument("--objects", type=int, default=base.num_objects)
    parser.add_argument("--queries", type=int, default=base.num_queries)
    parser.add_argument("--speed", type=float, default=base.mean_speed,
                        help="mean speed v-bar")
    parser.add_argument("--period", type=float, default=base.mean_period,
                        help="mean movement period t_v-bar")
    parser.add_argument("--q-len", type=float, default=base.q_len)
    parser.add_argument("--k-max", type=int, default=base.k_max)
    parser.add_argument("--grid-m", type=int, default=base.grid_m)
    parser.add_argument("--delay", type=float, default=base.delay,
                        help="one-way communication delay tau")
    parser.add_argument("--duration", type=float, default=base.duration)
    parser.add_argument("--seed", type=int, default=base.seed)
    parser.add_argument("--reachability", action="store_true",
                        help="enable the Section 6.1 enhancement")
    parser.add_argument("--steadiness", type=float, default=0.0,
                        help="Section 6.2 weighted-perimeter D parameter")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject channel/probe faults, e.g. "
                             "'drop=0.05,dup=0.02,delay=2,probe_timeout=0.1' "
                             "(docs/ROBUSTNESS.md); delay counts ticks of "
                             "the sample interval")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault-injection PRNGs "
                             "(independent of --seed)")
    parser.add_argument("--retransmit-timeout", type=float, default=None,
                        help="how long a client waits for its safe region "
                             "before resending a report (faulted runs "
                             "only; default covers the worst faulted "
                             "round trip)")
    parser.add_argument("--shards", type=int, default=0,
                        help="split the grid across this many shard "
                             "servers behind a routing coordinator "
                             "(docs/SHARDING.md); 0 = single server")
    parser.add_argument("--shard-workers", type=int, default=0,
                        help="run each shard as a multiprocessing worker "
                             "(> 0) instead of in-process (0); requires "
                             "--shards")
    parser.add_argument("--kill-shard", default=None, metavar="SHARD@TIME",
                        help="shard-failure drill: kill that shard at "
                             "that simulation time and continue in "
                             "degraded mode (requires --shards >= 2)")
    parser.add_argument("--refresh-probes", action="store_true",
                        help="exact cross-shard kNN merges: probe "
                             "boundary candidates whose held positions "
                             "may be stale before ranking (requires "
                             "--shards)")
    parser.add_argument("--reshard", default=None,
                        metavar="+@T|-S@T[,...]",
                        help="elasticity drill: '+@TIME' adds a shard, "
                             "'-SHARD@TIME' removes one, live, "
                             "comma-separated (requires --shards)")
    parser.add_argument("--rebalance", default=None, metavar="SPEC",
                        help="occupancy-driven elastic rebalancing, e.g. "
                             "'max=6,grow-imbalance=1.5,cooldown=2' "
                             "(docs/SHARDING.md; requires --shards)")


def _scenario_from(args: argparse.Namespace) -> Scenario:
    if args.faults is not None:
        try:
            FaultPlan.parse(args.faults)
        except ValueError as error:
            print(f"bad --faults spec: {error}", file=sys.stderr)
            raise SystemExit(2) from None
    try:
        return figures.BENCH_BASE.with_overrides(
            num_objects=args.objects,
            num_queries=args.queries,
            mean_speed=args.speed,
            mean_period=args.period,
            q_len=args.q_len,
            k_max=args.k_max,
            grid_m=args.grid_m,
            delay=args.delay,
            duration=args.duration,
            seed=args.seed,
            use_reachability=args.reachability,
            steadiness=args.steadiness,
            fault_spec=args.faults,
            fault_seed=args.fault_seed,
            retransmit_timeout=args.retransmit_timeout,
            shards=args.shards,
            shard_workers=args.shard_workers,
            kill_shard=args.kill_shard,
            refresh_probes=args.refresh_probes,
            reshard=args.reshard,
            rebalance=args.rebalance,
        )
    except ValueError as error:
        print(f"bad scenario: {error}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    schemes = tuple(args.schemes.split(","))
    events_log = None
    if args.events_out is not None or args.flight_recorder is not None:
        try:
            events_log = EventLog(
                capacity=args.flight_recorder_size, sink=args.events_out
            )
        except OSError as error:
            print(f"cannot open {args.events_out}: {error}", file=sys.stderr)
            return 2
    reports = run_schemes(
        scenario, schemes=schemes, metrics=args.metrics_out is not None,
        events=events_log, timeseries=args.metrics_out is not None,
    )
    print(format_table(
        [report.row() for report in reports.values()],
        title=f"scheme comparison (N={scenario.num_objects}, "
              f"W={scenario.num_queries}, tau={scenario.delay:g})",
    ))
    if args.metrics_out is not None:
        document = {
            "schemes": {
                name: report.metrics
                for name, report in reports.items()
                if report.metrics
            },
        }
        try:
            write_json(document, args.metrics_out)
        except OSError as error:
            print(f"cannot write {args.metrics_out}: {error}", file=sys.stderr)
            return 2
        print(f"metrics written to {args.metrics_out}")
    if events_log is not None:
        events_log.close()
        if args.events_out is not None:
            print(
                f"{events_log.total_emitted} events streamed to "
                f"{args.events_out}"
            )
        if args.flight_recorder is not None:
            try:
                kept = events_log.dump(args.flight_recorder)
            except OSError as error:
                print(
                    f"cannot write {args.flight_recorder}: {error}",
                    file=sys.stderr,
                )
                return 2
            print(
                f"flight recorder: last {kept} of "
                f"{events_log.total_emitted} events written to "
                f"{args.flight_recorder}"
            )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    try:
        document = load_metrics(args.file)
    except OSError as error:
        print(f"cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    print(render_document(document))
    return 0


def _compact(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    return str(value)


def _format_event(event: dict) -> str:
    """One event as one scannable line (seq, time, kind, cause, fields)."""
    seq = event.get("seq", "?")
    t = event.get("t", 0.0)
    kind = event.get("kind", "?")
    cause = event.get("cause")
    cause_text = f"<-#{cause}" if cause is not None else ""
    fields = " ".join(
        f"{key}={_compact(value)}"
        for key, value in event.items()
        if key not in ("seq", "t", "kind", "cause")
    )
    return f"#{seq:<7} t={t:<10g} {kind:<18} {cause_text:<9} {fields}".rstrip()


def _cmd_events(args: argparse.Namespace) -> int:
    try:
        events = read_events(args.file)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    if args.chain is not None:
        selected = causal_chain(events, args.chain)
        if not selected:
            print(
                f"no event with seq {args.chain} in {args.file}",
                file=sys.stderr,
            )
            return 1
    else:
        selected = filter_events(
            events, kind=args.kind, oid=args.oid, query=args.query,
            t_min=args.since, t_max=args.until,
        )
    if args.limit is not None:
        selected = selected[-args.limit:]
    for event in selected:
        print(_format_event(event))
    print(f"-- {len(selected)} of {len(events)} events", file=sys.stderr)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    if args.file is not None:
        try:
            events = read_events(args.file)
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read {args.file}: {error}", file=sys.stderr)
            return 2
        source = args.file
    else:
        scenario = _scenario_from(args)
        log = EventLog(capacity=args.capacity)
        run_schemes(scenario, schemes=("SRB",), events=log)
        events = [event.to_dict() for event in log.events()]
        source = (
            f"live SRB run (N={scenario.num_objects}, "
            f"W={scenario.num_queries}, T={scenario.duration:g})"
        )
    rows = timeline(events, interval=args.interval)
    print(format_table(rows, title=f"event timeline: {source}"))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    try:
        events = read_events(args.file)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    report = diagnose(
        events,
        probe_cascade_threshold=args.probe_cascade_threshold,
        shrink_storm_threshold=args.shrink_storm_threshold,
        shrink_storm_window=args.shrink_storm_window,
        retry_storm_threshold=args.retry_storm_threshold,
        retry_storm_window=args.retry_storm_window,
        stuck_degraded_timeout=args.stuck_degraded_timeout,
        check_ground_truth=args.ground_truth,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    simulation = SRBSimulation(
        scenario,
        profile=True,
        profile_max_ticks=args.ticks,
        profile_top_k=args.top_k,
    )
    report = simulation.run()
    summary = report.extras.get("profile") or {}
    scope = (
        f"first {args.ticks} ticks" if args.ticks is not None
        else "whole run"
    )
    deployment = (
        f"{scenario.shards} shards" if scenario.shards else "single server"
    )
    print(
        f"SRB profile: N={scenario.num_objects} W={scenario.num_queries} "
        f"T={scenario.duration:g} ({deployment}, {scope})"
    )
    print(render_profile(summary, top_k=args.top_k))
    if args.folded_out is not None:
        try:
            with open(args.folded_out, "w", encoding="utf-8") as handle:
                for line in folded_lines(summary):
                    handle.write(line + "\n")
        except OSError as error:
            print(f"cannot write {args.folded_out}: {error}", file=sys.stderr)
            return 2
        print(f"collapsed stacks written to {args.folded_out}")
    if args.profile_out is not None:
        try:
            write_json(summary, args.profile_out)
        except OSError as error:
            print(f"cannot write {args.profile_out}: {error}", file=sys.stderr)
            return 2
        print(f"profile report written to {args.profile_out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    figure_fn = figures.ALL_FIGURES.get(args.id)
    if figure_fn is None:
        known = ", ".join(sorted(figures.ALL_FIGURES))
        print(f"unknown figure {args.id!r}; known: {known}", file=sys.stderr)
        return 2
    result = figure_fn(_scenario_from(args))
    print(result.table())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    values = [_parse_value(v) for v in args.values.split(",")]
    schemes = tuple(args.schemes.split(","))
    rows = []
    for value, reports in sweep(scenario, args.parameter, values, schemes):
        for name, report in reports.items():
            row = {args.parameter: value, "scheme": name}
            row.update(report.row())
            row.pop("scheme", None)
            rows.append({args.parameter: value, "scheme": name,
                         "accuracy": report.accuracy,
                         "comm_cost": report.comm_cost,
                         "cpu_s_per_time": report.cpu_seconds_per_time})
    print(format_table(rows, title=f"sweep over {args.parameter}"))
    return 0


def _cmd_theorem(args: argparse.Namespace) -> int:
    region = Rect(0.0, 0.0, args.width, args.height)
    start = Point(args.x * args.width, args.y * args.height)
    paper = expected_escape_time(region, args.speed)
    exact = simulate_escape_time(region, start, args.speed, samples=args.samples)
    print(f"region            : {args.width:g} x {args.height:g} "
          f"(perimeter {region.perimeter:g})")
    print(f"start (fractional): ({args.x:g}, {args.y:g})")
    print(f"Theorem 5.1 says  : E[T] = {paper:.6f}")
    print(f"Monte Carlo says  : E[T] = {exact:.6f}  "
          f"({100 * exact / paper:.1f}% of the paper's estimate)")
    return 0


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compare = commands.add_parser(
        "compare", help="run SRB / OPT / PRD over one scenario"
    )
    _add_scenario_arguments(compare)
    compare.add_argument(
        "--schemes", default="SRB,OPT,PRD(1),PRD(0.1)",
        help="comma-separated scheme list",
    )
    compare.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="enable the metrics registry and write per-scheme span "
             "timings, counters, and per-checkpoint time series to FILE "
             "(render with 'repro stats')",
    )
    compare.add_argument(
        "--events-out", metavar="FILE", default=None,
        help="stream every SRB structured event to FILE as JSONL "
             "(read with 'repro events' / 'repro monitor' / "
             "'repro diagnose')",
    )
    compare.add_argument(
        "--flight-recorder", metavar="FILE", default=None,
        help="keep the last --flight-recorder-size SRB events in a ring "
             "buffer and dump them to FILE at run end",
    )
    compare.add_argument(
        "--flight-recorder-size", type=int, default=4096, metavar="N",
        help="ring-buffer capacity for --flight-recorder (default 4096)",
    )
    compare.set_defaults(handler=_cmd_compare)

    stats = commands.add_parser(
        "stats", help="render a metrics file as human-readable tables"
    )
    stats.add_argument(
        "file", help="metrics JSON (from --metrics-out or bench_metrics.json)"
    )
    stats.set_defaults(handler=_cmd_stats)

    events_cmd = commands.add_parser(
        "events", help="read a recorded event stream (JSONL)"
    )
    events_cmd.add_argument("file", help="event JSONL file")
    events_cmd.add_argument("--kind", default=None,
                            help="keep only events of this kind")
    events_cmd.add_argument("--oid", default=None,
                            help="keep only events about this object id")
    events_cmd.add_argument("--query", default=None,
                            help="keep only events about this query id")
    events_cmd.add_argument("--since", type=float, default=None,
                            metavar="T", help="keep events with t >= T")
    events_cmd.add_argument("--until", type=float, default=None,
                            metavar="T", help="keep events with t <= T")
    events_cmd.add_argument("--limit", type=int, default=None, metavar="N",
                            help="print only the last N matching events")
    events_cmd.add_argument(
        "--chain", type=int, default=None, metavar="SEQ",
        help="render the full causal chain containing event SEQ "
             "(root update through probes and result changes)",
    )
    events_cmd.set_defaults(handler=_cmd_events)

    monitor = commands.add_parser(
        "monitor",
        help="per-interval timeline of an event stream (file or live run)",
    )
    monitor.add_argument(
        "file", nargs="?", default=None,
        help="event JSONL file; omitted: run the SRB scheme live",
    )
    monitor.add_argument("--interval", type=float, default=1.0,
                         help="timeline bucket width in simulated time")
    monitor.add_argument("--capacity", type=int, default=262144,
                         help="flight-recorder capacity for live runs")
    _add_scenario_arguments(monitor)
    monitor.set_defaults(handler=_cmd_monitor)

    diagnose_cmd = commands.add_parser(
        "diagnose",
        help="check a recorded event stream against the invariants",
    )
    diagnose_cmd.add_argument("file", help="event JSONL file")
    diagnose_cmd.add_argument(
        "--probe-cascade-threshold", type=int, default=10,
        help="max probes one root event may transitively cause",
    )
    diagnose_cmd.add_argument(
        "--shrink-storm-threshold", type=int, default=25,
        help="max shrink pushes per window before flagging a storm",
    )
    diagnose_cmd.add_argument(
        "--shrink-storm-window", type=float, default=1.0,
        help="storm-detection window in simulated time",
    )
    diagnose_cmd.add_argument(
        "--retry-storm-threshold", type=int, default=30,
        help="max probe retries per window before flagging a storm",
    )
    diagnose_cmd.add_argument(
        "--retry-storm-window", type=float, default=1.0,
        help="retry-storm window in simulated time",
    )
    diagnose_cmd.add_argument(
        "--stuck-degraded-timeout", type=float, default=5.0,
        help="max time an object may stay degraded without recovery",
    )
    diagnose_cmd.add_argument(
        "--ground-truth", action="store_true",
        help="treat any checkpoint mismatch as a violation (only sound "
             "for zero-delay runs)",
    )
    diagnose_cmd.set_defaults(handler=_cmd_diagnose)

    profile_cmd = commands.add_parser(
        "profile",
        help="attribute SRB tick time to phases and hotspots",
    )
    _add_scenario_arguments(profile_cmd)
    profile_cmd.add_argument(
        "--ticks", type=int, default=None, metavar="N",
        help="sampling capture: profile only the first N server ticks "
             "(per shard in sharded mode; default: the whole run)",
    )
    profile_cmd.add_argument(
        "--top-k", type=int, default=10, metavar="K",
        help="rows per hotspot table (queries / cells / objects)",
    )
    profile_cmd.add_argument(
        "--folded-out", metavar="FILE", default=None,
        help="write collapsed-stack lines ('phase;subphase micros') "
             "for flamegraph.pl or speedscope",
    )
    profile_cmd.add_argument(
        "--profile-out", metavar="FILE", default=None,
        help="write the JSON phase-budget report (phases, hotspots, "
             "occupancy; per-shard sections under 'shards')",
    )
    profile_cmd.set_defaults(handler=_cmd_profile)

    figure = commands.add_parser(
        "figure", help="regenerate a paper figure (7.1 ... 7.6b)"
    )
    figure.add_argument("id", help="figure id, e.g. 7.1 or 7.6a")
    _add_scenario_arguments(figure)
    figure.set_defaults(handler=_cmd_figure)

    sweep_cmd = commands.add_parser(
        "sweep", help="sweep one scenario parameter"
    )
    sweep_cmd.add_argument("parameter", help="Scenario field, e.g. delay")
    sweep_cmd.add_argument("values", help="comma-separated values")
    _add_scenario_arguments(sweep_cmd)
    sweep_cmd.add_argument("--schemes", default="SRB,OPT")
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    theorem = commands.add_parser(
        "theorem", help="Theorem 5.1 estimate vs exact Monte Carlo"
    )
    theorem.add_argument("--width", type=float, default=0.1)
    theorem.add_argument("--height", type=float, default=0.05)
    theorem.add_argument("--x", type=float, default=0.5,
                         help="fractional start x within the region")
    theorem.add_argument("--y", type=float, default=0.5)
    theorem.add_argument("--speed", type=float, default=0.01)
    theorem.add_argument("--samples", type=int, default=200_000)
    theorem.set_defaults(handler=_cmd_theorem)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover — exercised via __main__
    raise SystemExit(main())

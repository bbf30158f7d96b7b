"""One measured run of one workload, in this process.

``measure`` returns a plain dict: the eight end-to-end metrics, the
counts the determinism gate compares, the correctness tally, and — for
a traced run — every per-layer metric plus the span log.

Timing protocol (the same for every workload): build the world and
bring the server to its monitored steady state (``setup_s``), collect
and freeze the garbage collector's generations, then one timed pass
over the fixed monitoring period with no warm-up (``run_s``) — in the
closed loop users pay cold caches, so the benchmark does too.  Time and
memory spent inside the accuracy oracle are not the system's and are
left out of ``run_s`` and ``peak_rss_mb``.  Further set-ups, for the
``setup_s`` median, happen after the timed pass so they cannot warm it.
Every end-to-end time is in seconds at reference machine speed
(``tracing.SpeedProbe``); per-layer times are raw wall seconds.
"""

from __future__ import annotations

import gc
import statistics

import numpy as np
import workloads as wl
from oracle import exact_results
from tracing import (
    CheckpointTruth, SpanLog, SpeedProbe, TimedServer, TracedClient, rss_mb,
)

from repro.core.server import DatabaseServer, ServerConfig
from repro.geometry.point import Point
from repro.kernels import Kernels
from repro.obs import MetricsRegistry
from repro.simulation.engine import SRBSimulation
from repro.simulation.metrics import CommunicationCosts
from repro.simulation.truth import GroundTruth


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _peak_rss_mb(before_oracle: list[tuple[float, float]]) -> float:
    """Peak resident memory outside the accuracy oracle's own calls.

    ``before_oracle`` holds ``rss_mb()`` read on entry to each oracle
    call.  Up to the first call the kernel's high-water mark is exact;
    after it that mark includes the oracle's arrays, so later readings
    are the resident size on entry to each further call and now.
    """
    readings = before_oracle + [rss_mb()]
    return max([readings[0][0]] + [now for _, now in readings[1:]])


def _validate(server, failures: list[str]) -> None:
    """``server.validate()`` as one counted operation."""
    try:
        server.validate()
    except AssertionError as exc:
        failures.append(f"server.validate(): {exc}")


#: At ``--smoke`` size a loop has a tenth of the queries, so one stale
#: result moves a checkpoint's accuracy ten times as far.
SMOKE_FLOOR_SLACK = 0.15


def _check_floor(
    workload: wl.Workload, accuracies: list[float], expected: int,
    failures: list[str], smoke: bool,
) -> None:
    if len(accuracies) != expected:
        failures.append(
            f"{len(accuracies)} accuracy checkpoints taken, expected {expected}"
        )
    floor = workload.accuracy_floor
    if smoke and floor < 1.0:
        floor -= SMOKE_FLOOR_SLACK
    for index, accuracy in enumerate(accuracies):
        if accuracy < floor:
            failures.append(
                f"checkpoint {index}: accuracy {accuracy:.4f} below the "
                f"floor {floor}"
            )


def _result(
    workload, log, latencies, accuracies, failures, exact,
    setups, run, reports, rss, layers,
) -> dict:
    """The dict ``measure`` returns, shared by loops and replay.

    ``setups`` and ``run`` are ``SpeedProbe.end`` timings.
    """
    ordered = sorted(latencies)
    result = {
        "attempted": len(latencies) + len(accuracies) + 1,
        "failures": failures,
        "checkpoint_accuracy": accuracies,
        "latency_samples": len(latencies),
        "exact": exact,
        "run": run,
        "setups": setups,
        "end_to_end": {
            "setup_s": statistics.median(t["seconds"] for t in setups),
            "run_s": run["seconds"],
            "updates_per_s": reports / run["seconds"],
            "report_lat_med_us":
                percentile(ordered, 0.50) * 1e6 / run["slowdown"],
            "report_lat_tail_us":
                percentile(ordered, workload.tail_percentile / 100.0) * 1e6
                / run["slowdown"],
            "accuracy": exact["accuracy"],
            "comm_cost": exact["comm_cost"],
            "peak_rss_mb": rss,
        },
    }
    if log is not None:
        layers["obs.machine_slowdown"] = run["slowdown"]
        result["span_log"] = log
        result["per_layer"] = layers
    return result


# ---------------------------------------------------------------------------
# Closed loops


def _loop_setup(
    scenario, log, registry, probe, cross_check
) -> tuple[SRBSimulation, dict]:
    """A bootstrapped-on-demand simulation behind the timing proxies.

    Returns the simulation and ``marks``, which its (wrapped) bootstrap
    step fills in: the set-up timing and where the run phase starts.
    ``_bootstrap`` is the one private name the harness touches: ``run()``
    bootstraps and monitors in one call, and the boundary between
    ``setup_s`` and ``run_s`` is the end of that step.
    """
    def construct() -> SRBSimulation:
        return SRBSimulation(
            scenario, metrics=registry, profile=log is not None
        )

    opened = probe.begin()
    sim = construct() if log is None else log.call("engine.construct", construct)
    server = sim.server = TimedServer(sim.server, log, probe)
    sim.truth = CheckpointTruth(sim.truth, log, sim.accuracy, cross_check)
    if log is not None:
        sim.clients = {
            oid: TracedClient(client, log)
            for oid, client in sim.clients.items()
        }
    bootstrap = sim._bootstrap
    marks: dict = {}

    def timed_bootstrap() -> None:
        if log is None:
            bootstrap()
        else:
            log.call("engine.bootstrap", bootstrap)
        marks["setup"] = probe.end(opened)
        if scenario.shards:
            marks["shards"] = _shard_clocks(server)
        gc.collect()
        gc.freeze()
        marks["run"] = probe.begin()
        if log is not None:
            marks["run_span"] = len(log.spans)
            log.open("engine.run")

    sim._bootstrap = timed_bootstrap
    return sim, marks


def _shard_clocks(server) -> dict:
    """The sharded coordinator's public time read-outs, as of now."""
    return {
        "route": server.route_seconds,
        "merge": server.merge_seconds,
        "busy": list(server.shard_busy_seconds()),
    }


def measure_loop(
    workload: wl.Workload, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    scenario = wl.loop_scenario(workload, seed, seconds, smoke)
    log = SpanLog() if trace else None
    registry = MetricsRegistry() if trace else None
    probe = SpeedProbe(log)

    sim, marks = _loop_setup(scenario, log, registry, probe, smoke)
    server, truth = sim.server, sim.truth
    report = sim.run()
    if trace:
        log.close()
    run = probe.end(marks["run"], excluded=truth.seconds)
    rss = _peak_rss_mb(truth.rss)

    failures: list[str] = []
    _validate(server, failures)
    accuracies = truth.checkpoint_accuracies()
    _check_floor(workload, accuracies, workload.checkpoints, failures, smoke)
    if truth.disagreements:
        failures.append(
            f"oracle.exact_results disagrees with GroundTruth at "
            f"{truth.disagreements} checkpoint(s)"
        )
    latencies = server.latencies
    layers = None
    if trace:
        layers = _layers(
            log, marks["run_span"], report.metrics, report.extras["profile"],
            server.stats, report.costs,
        )
        if scenario.shards:
            layers.update(_shard_layers(
                marks["shards"], _shard_clocks(server),
                report.extras["shards"], sum(latencies),
            ))
    server.shutdown()
    gc.unfreeze()

    setups = [marks["setup"]]
    if not trace:
        del sim, server, truth
        gc.collect()
        for _ in range(workload.setups - 1):
            sim, again = _loop_setup(scenario, None, None, probe, False)
            sim._bootstrap()
            setups.append(again["setup"])
            gc.unfreeze()
            sim.server.shutdown()
            del sim
            gc.collect()
    exact = {
        "comm.updates": report.costs.updates,
        "comm.probes": report.costs.probes,
        "accuracy": report.accuracy,
        "comm_cost": report.comm_cost,
        "server.update_calls": len(latencies),
    }
    return _result(
        workload, log, latencies, accuracies, failures, exact,
        setups, run, report.costs.updates, rss, layers,
    )


# ---------------------------------------------------------------------------
# Server-only replay


class _Parked:
    """A motionless trajectory, so ``GroundTruth`` can judge a snapshot."""

    __slots__ = ("point",)

    def __init__(self, point: Point) -> None:
        self.point = point

    def position_at(self, t: float) -> Point:
        return self.point


def _replay_setup(workload, seed, seconds, smoke, log, registry, probe):
    """Report plan plus a loaded server monitoring its queries, timed.

    In this replay an object moves only by reporting, so the position
    the server holds *is* the object's position until its report is
    processed — and that is what a probe must answer.  Answering with
    the end-of-tick position instead (the hot-path bench's oracle, where
    every mover teleports before the batch is handled) leaves movers
    outside their safe regions mid-batch and the results ~2 % inexact
    (README.md, "What the exactness check found").
    """
    def held_position(oid):
        return Point(*server.positions.get(oid))

    opened = probe.begin()
    if log is not None:
        log.open("engine.bootstrap")
    world = wl.replay_world(workload, seed, seconds, smoke)
    server = DatabaseServer(
        held_position, ServerConfig(grid_m=wl.GRID_M), metrics=registry
    )
    timed = TimedServer(server, log, probe)
    timed.load_objects(world.positions.items())
    for query in world.queries:
        timed.register_query(query, 0.0)
    if log is not None:
        log.close()
    return world, server, timed, probe.end(opened)


#: Probe samples before each replay tick: the server is entered once per
#: tick, far too rarely to pace the probe by calls.
REPLAY_PROBES_PER_TICK = 4


def measure_replay(
    workload: wl.Workload, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    log = SpanLog() if trace else None
    registry = MetricsRegistry() if trace else None
    probe = SpeedProbe(log)

    world, server, timed, setup = _replay_setup(
        workload, seed, seconds, smoke, log, registry, probe
    )
    live = dict(world.positions)
    if trace:
        server.profile_start()
    gc.collect()
    gc.freeze()

    active = list(world.queries)
    fresh = iter(world.churn)
    checkpoints = []
    opened = probe.begin()
    if trace:
        run_span = len(log.spans)
        log.open("engine.run")
    for tick, batch in enumerate(world.plan, 1):
        clock = float(tick)
        churn = tick % wl.CHURN_EVERY == 0
        for _ in range(REPLAY_PROBES_PER_TICK):
            probe.sample()
        if churn:
            server.deregister_query(active.pop(0))
            active.append(next(fresh))
            timed.register_query(active[-1], clock)
        live.update(batch)
        timed.handle_location_updates(batch, clock)
        if churn:
            # Judged after the clock stops: a copy of the true positions
            # and of what the server believes each live query's result is.
            checkpoints.append(
                (dict(live), [(q, q.result_snapshot()) for q in active])
            )
    if trace:
        log.close()
    run = probe.end(opened)
    rss = _peak_rss_mb([])
    latencies = timed.latencies

    failures: list[str] = []
    _validate(server, failures)
    accuracies = []
    for positions, believed in checkpoints:
        queries = [query for query, _ in believed]
        truth = exact_results(
            list(positions),
            np.array([p.x for p in positions.values()]),
            np.array([p.y for p in positions.values()]),
            queries, Kernels(),
        )
        if smoke and truth != GroundTruth(
            {oid: _Parked(p) for oid, p in positions.items()}, queries
        ).evaluate_at(0.0):
            failures.append("oracle.exact_results disagrees with GroundTruth")
        accuracies.append(
            sum(truth[q.query_id] == seen for q, seen in believed)
            / len(believed)
        )
    _check_floor(workload, accuracies, len(world.churn), failures, smoke)
    stats = server.stats
    costs = CommunicationCosts.from_server_stats(
        stats, updates=stats.location_updates
    )
    layers = None
    if trace:
        layers = _layers(
            log, run_span, registry.to_dict(), server.profile_snapshot(),
            stats, costs,
        )
    gc.unfreeze()

    setups = [setup]
    exact = {
        "comm.updates": costs.updates,
        "comm.probes": costs.probes,
        "accuracy": sum(accuracies) / len(accuracies),
        "comm_cost": costs.per_client_per_time(
            len(world.positions), len(world.plan)
        ),
        "server.update_calls": len(latencies),
    }
    if not trace:
        del world, server, timed, live, checkpoints
        gc.collect()
        for _ in range(workload.setups - 1):
            setups.append(_replay_setup(
                workload, seed, seconds, smoke, None, None, probe
            )[-1])
            gc.collect()
    return _result(
        workload, log, latencies, accuracies, failures, exact,
        setups, run, costs.updates, rss, layers,
    )


def measure(
    workload: wl.Workload, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    run = measure_replay if workload.kind == "replay" else measure_loop
    return run(workload, seed, seconds, trace, smoke)


# ---------------------------------------------------------------------------
# Per-layer metrics (traced runs)


def _merged_registry(snapshot: dict) -> tuple[dict, dict]:
    """Counters summed, and gauge readings listed, over coordinator + shards."""
    counters: dict[str, float] = {}
    gauges: dict[str, list[float]] = {}
    for section in (snapshot, *snapshot.get("shards", {}).values()):
        for name, value in section.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in section.get("gauges", {}).items():
            gauges.setdefault(name, []).append(value)
    return counters, gauges


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layers(
    log: SpanLog, run_span: int, snapshot: dict, profile: dict, stats, costs
) -> dict[str, float]:
    """Every per-layer metric except ``sharding.*`` and ``obs.*``.

    Span figures are for the monitoring period (spans from ``run_span``
    on) unless the name says set-up; counters and gauges are the
    program's own public read-outs for the whole process.
    """
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    setup = log.totals(0, run_span)
    run = log.totals(run_span)
    registers = [
        phase.get("server.register_query", zero) for phase in (setup, run)
    ]
    counters, gauges = _merged_registry(snapshot)

    def count(name: str) -> float:
        return counters.get(name, 0)

    def gauge(name: str, fold) -> float:
        return fold(gauges.get(name) or [0])

    update = run.get("server.update", zero)
    updates = count("server.location_updates")
    fast = count("server.update.fastpath")
    certified = count("server.update.certified")
    phases = profile.get("phases", {})

    def phase(suffix: str) -> float:
        return sum(
            seconds for path, seconds in phases.items()
            if path == suffix or path.endswith(";" + suffix)
        )

    named = sum(seconds for path, seconds in phases.items() if path != "tick")
    scanned = count("kernels.rows_scanned")
    fallback = count("kernels.fallback_rows")
    hits = count("grid.cache.hits")
    layers = {
        "engine.self_s": run["engine.run"]["self_s"],
        "engine.construct_s": setup.get("engine.construct", zero)["total_s"],
        "engine.bootstrap_s": setup["engine.bootstrap"]["total_s"],
        "truth.evaluate_calls": run.get("truth.evaluate", zero)["calls"],
        "truth.evaluate_s": run.get("truth.evaluate", zero)["total_s"],
        "server.update_calls": update["calls"],
        "server.update_s": update["total_s"],
        "server.update_self_s": update["self_s"],
        "server.load_objects_s":
            setup.get("server.load_objects", zero)["total_s"],
        "server.register_query_calls": sum(r["calls"] for r in registers),
        "server.register_query_s": sum(r["total_s"] for r in registers),
        "server.path.fast_share": _ratio(fast, updates),
        "server.path.certified_share": _ratio(certified, updates),
        "server.path.slow_share": _ratio(updates - fast - certified, updates),
        "server.sr_recompute_skipped": count("server.sr_recompute.skipped"),
        "server.queries_checked": stats.queries_checked,
        "server.queries_reevaluated": stats.queries_reevaluated,
        "server.result_changes": stats.result_changes,
        "server.probes": stats.probes,
        "server.pushes": stats.safe_region_pushes,
        "server.phase.ingest_s": phase("ingest"),
        "server.phase.reevaluate_s": phase("reevaluate"),
        "server.phase.scatter_s": phase("report.scatter"),
        "server.phase.safe_region_s": phase("safe_region"),
        "server.phase.orchestration_s": phases.get("tick", 0.0),
        "server.phase.unattributed_share":
            1.0 - _ratio(named, update["self_s"]),
        "index.grid.lookups": count("grid.lookups"),
        "index.grid.cache_hit_ratio":
            _ratio(hits, hits + count("grid.cache.misses")),
        "index.grid.occupancy_peak": gauge("grid.cell_occupancy.peak", max),
        "index.rstar.height": gauge("rstar.height", max),
        "index.rstar.nodes": gauge("rstar.nodes", sum),
        "kernels.batch_calls": count("kernels.batch_calls"),
        "kernels.rows_scanned": scanned,
        "kernels.rows_per_call": _ratio(scanned, count("kernels.batch_calls")),
        "kernels.fallback_row_ratio": _ratio(fallback, scanned + fallback),
        "kernels.planner.plans": count("kernels.planner.plans"),
        "kernels.planner.rows_gathered": count("kernels.planner.rows_gathered"),
        "kernels.planner.scatter_s": count("kernels.planner.scatter_seconds"),
        "comm.updates": costs.updates,
        "comm.probes": costs.probes,
        "comm.probes_per_update": _ratio(costs.probes, costs.updates),
    }
    for layer in ("exit_time", "position", "install"):
        row = run.get(f"mobility.{layer}", zero)
        layers[f"mobility.{layer}_calls"] = row["calls"]
        layers[f"mobility.{layer}_s"] = row["total_s"]
    for kind in ("exit", "retry", "recv_update", "recv_region"):
        layers[f"engine.events.{kind}"] = count(f"sim.events.{kind}")
    for name in SHARD_LAYERS:
        layers[name] = 0.0
    return layers


SHARD_LAYERS = (
    "sharding.route_s", "sharding.merge_s", "sharding.shard_busy_sum_s",
    "sharding.shard_busy_max_s", "sharding.pipe_wait_s",
    "sharding.busy_imbalance", "sharding.objects_imbalance",
    "sharding.refresh_probes",
)


def _shard_layers(
    before: dict, after: dict, extras: dict, update_s: float
) -> dict[str, float]:
    """``sharding.*`` for the monitoring period (read-outs minus set-up)."""
    route = after["route"] - before["route"]
    merge = after["merge"] - before["merge"]
    busy = [b - a for a, b in zip(before["busy"], after["busy"])]
    objects = extras["objects"]
    return {
        "sharding.route_s": route,
        "sharding.merge_s": merge,
        "sharding.shard_busy_sum_s": sum(busy),
        "sharding.shard_busy_max_s": max(busy),
        # What is left of the coordinator's wall time in update calls once
        # its own routing/merging and the shards' busy time are taken out:
        # pickling, pipe transfer and waiting to be scheduled.
        "sharding.pipe_wait_s": update_s - route - merge - sum(busy),
        "sharding.busy_imbalance": _ratio(max(busy) * len(busy), sum(busy)),
        "sharding.objects_imbalance":
            _ratio(max(objects) * len(objects), sum(objects)),
        "sharding.refresh_probes": extras["refresh_probes"],
    }

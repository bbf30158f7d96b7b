"""Shard-scaling benchmark: throughput at 1/2/4 multiprocessing shards.

Replays one deterministic update stream against a
:class:`~repro.sharding.ShardedServer` at growing shard counts and
reports the critical-path throughput of each configuration.  On a
single-CPU CI runner the workers timeshare one core, so wall-clock
cannot show parallel speedup; instead each run is scored by the model

    updates_per_sec = updates / (max shard busy + route + merge)

where shard busy is per-process CPU time (``time.process_time``, so
timesharing and pipe waits are not billed) and route/merge are the
coordinator's serial CPU time.  That quotient is the replay's wall time
on a host with one core per shard — the quantity sharding exists to
scale — and is reproducible enough to gate in CI.

Three pins ride along:

* ``equivalent`` — the in-process mode (``n_workers=0``) must end
  bit-identical to a single unsharded ``DatabaseServer`` fed the same
  stream (per-query result snapshots and the location-update count);
* the full run must show >= 2.5x scaling of the parallel component
  (max per-shard busy time) and >= 2.0x end-to-end critical-path
  throughput at 4 shards vs 1 — the coordinator's serial route+merge
  grows with update volume, so end-to-end strong scaling saturates
  near 1 / (serial share + parallel share / 4) regardless of replay
  size, and absolute throughput is gated by the tracked trajectory
  (``check_regression.py --trajectory``) instead;
* an untimed metrics replay records per-shard kernel counters
  (``shard_kernels`` in the document) and at least one shard must have
  produced a tick plan — the columnar pipeline stays live under
  sharding;
* ``merge_exactness`` — a closed-loop accuracy pair (refresh probes
  off/on) showing the held-position cross-shard kNN merge drifting
  below 0.99 and the probed merge recovering it, with the probe count
  and its communication-cost premium recorded alongside.

Emits ``benchmarks/results/BENCH_shards.json`` — the tracked baseline
gated by ``benchmarks/check_regression.py``.  ``SHARDS_SMOKE=1``
shrinks the scenario for CI; the committed JSON comes from a full run.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time

from conftest import RESULTS_DIR, append_trajectory

from repro.core.queries import KNNQuery, RangeQuery
from repro.core.server import DatabaseServer, ServerConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry
from repro.sharding import ShardedServer
from repro.simulation.engine import SRBSimulation
from repro.simulation.scenario import Scenario

#: Per-shard kernel counters copied into the emitted document: how
#: much columnar kernel work each shard's slice of the routed stream did.
KERNEL_COUNTERS = (
    "kernels.batch_calls",
    "kernels.rows_scanned",
    "kernels.fallback_calls",
    "kernels.fallback_rows",
)

SMOKE = os.environ.get("SHARDS_SMOKE") == "1"

SEED = 7
GRID_M = 12
SIGMA = 0.001  # per-tick gaussian step — small enough that most
#              reports stay inside the home cell (cross-shard moves
#              exercise migration without dominating the bill)
if SMOKE:
    NUM_OBJECTS, NUM_QUERIES, TICKS = 400, 12, 6
else:
    NUM_OBJECTS, NUM_QUERIES, TICKS = 6000, 24, 24
MOVERS_PER_TICK = NUM_OBJECTS // 5
SHARD_COUNTS = (1, 2, 4)
#: Timed repetitions per shard count; the best run counts.
REPEATS = 1 if SMOKE else 3
#: The sharded (parallelisable) component — max per-shard busy time —
#: must scale >= 2.5x from 1 to 4 shards.  End-to-end critical-path
#: scaling is gated at 2.0x: route and merge are serial coordinator
#: work that grows with the update volume, so the end-to-end ratio
#: saturates near 1 / (serial share + parallel share / 4) (~2.9 at
#: this workload) no matter how large the replay — the Amdahl floor.
#: Absolute throughput is gated separately by the tracked trajectory.
REQUIRED_BUSY_SCALING_AT_4 = 2.5
REQUIRED_SCALING_AT_4 = 2.0

#: Closed-loop merge-exactness scenario (``repro compare`` semantics:
#: accuracy is results-vs-true-positions at every checkpoint).  The
#: held-position cross-shard kNN merge drifts well below 0.98; the
#: refresh-probe merge must recover it, and the probe premium lands on
#: the communication bill where it can be gated and documented.
if SMOKE:
    ACC_SCENARIO = dict(
        num_objects=240, num_queries=16, duration=3.0,
        seed=3, shards=3, grid_m=14,
    )
else:
    ACC_SCENARIO = dict(
        num_objects=1200, num_queries=40, duration=6.0, seed=3, shards=4,
    )
#: Read 0.99 (0.9952 measured) while every other kNN safe region was
#: left within one position poll: a refresh probe fires when a report
#: comes in, so part of that accuracy was bought by storm traffic.  With
#: room in the regions (DESIGN.md §6 item 1) the full world sends a
#: third of the reports (126,717 -> 42,478) and reads 0.9879, the smoke
#: world 0.9896.
REQUIRED_PROBED_ACCURACY = 0.98


def _build():
    """World + query mix + replay plan, fully determined by ``SEED``."""
    rng = random.Random(SEED)
    positions = {
        f"o{n}": Point(rng.random(), rng.random())
        for n in range(NUM_OBJECTS)
    }
    queries = []
    for i in range(NUM_QUERIES):
        if i % 3:
            x = rng.random() * 0.9
            y = rng.random() * 0.9
            queries.append(
                RangeQuery(Rect(x, y, x + 0.05, y + 0.05), query_id=f"r{i:03d}")
            )
        else:
            center = Point(rng.random(), rng.random())
            queries.append(KNNQuery(center, 3, query_id=f"k{i:03d}"))
    plan = []
    live = dict(positions)
    for _ in range(TICKS):
        batch = []
        for oid in rng.sample(sorted(live), MOVERS_PER_TICK):
            p = live[oid]
            q = Point(
                min(max(p.x + rng.gauss(0.0, SIGMA), 0.0), 1.0),
                min(max(p.y + rng.gauss(0.0, SIGMA), 0.0), 1.0),
            )
            live[oid] = q
            batch.append((oid, q))
        plan.append(batch)
    return positions, queries, plan


def _final_state(server, queries):
    snapshots = {q.query_id: q.result_snapshot() for q in queries}
    return snapshots, server.stats.location_updates


def _run_single():
    """The unsharded reference replay (equivalence pin only, untimed)."""
    positions, queries, plan = _build()
    live = dict(positions)
    server = DatabaseServer(lambda oid: live[oid], ServerConfig(grid_m=GRID_M))
    server.load_objects(sorted(live.items()), 0.0)
    for query in queries:
        server.register_query(query, time=0.0)
    clock = 0.0
    for batch in plan:
        clock += 1.0
        live.update(batch)
        server.handle_location_updates(batch, time=clock)
    server.validate()
    return _final_state(server, queries)


def _run_sharded(n_shards: int, n_workers: int, metrics=None):
    """Replay the plan against a fresh cluster; score the critical path."""
    positions, queries, plan = _build()
    live = dict(positions)
    cluster = ShardedServer(
        lambda oid: live[oid],
        ServerConfig(grid_m=GRID_M),
        n_shards=n_shards,
        n_workers=n_workers,
        metrics=metrics,
    )
    cluster.load_objects(sorted(live.items()), 0.0)
    for query in queries:
        cluster.register_query(query, time=0.0)
    clock = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for batch in plan:
            clock += 1.0
            live.update(batch)
            cluster.handle_location_updates(batch, time=clock)
        wall = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    cluster.validate()
    busy = cluster.shard_busy_seconds()
    critical = max(busy) + cluster.route_seconds + cluster.merge_seconds
    snapshots, updates = _final_state(cluster, queries)
    run = {
        "updates": updates,
        "critical_path_seconds": critical,
        "busy_seconds_max": max(busy),
        "busy_seconds_total": sum(busy),
        "route_seconds": cluster.route_seconds,
        "merge_seconds": cluster.merge_seconds,
        "wall_seconds": wall,
        "snapshots": snapshots,
    }
    if metrics is not None:
        run["shard_metrics"] = cluster.shard_metrics_snapshots()
    cluster.close()
    return run


def _shard_kernel_counters(run: dict) -> dict[str, dict]:
    """Selected kernel counters per shard, from a metrics-enabled run."""
    out = {}
    for shard, snapshot in sorted(run["shard_metrics"].items()):
        counters = snapshot.get("counters", {})
        out[shard] = {
            name.removeprefix("kernels."): counters.get(name, 0)
            for name in KERNEL_COUNTERS
        }
    return out


def _run_accuracy() -> dict:
    """Closed-loop accuracy and probe cost, probes off vs on."""
    out = {}
    for label, probes in (("held", False), ("probed", True)):
        report = SRBSimulation(
            Scenario(refresh_probes=probes, **ACC_SCENARIO)
        ).run()
        costs = report.costs
        out[label] = {
            "refresh_probes": probes,
            "accuracy": round(report.accuracy, 4),
            "refresh_probe_count": report.extras["shards"]["refresh_probes"],
            "updates": costs.updates,
            "probes": costs.probes,
            "comm_cost": round(
                costs.per_client_per_time(
                    ACC_SCENARIO["num_objects"], ACC_SCENARIO["duration"]
                ),
                4,
            ),
        }
    return out


def _timing(run: dict) -> dict:
    critical = run["critical_path_seconds"]
    return {
        "updates": run["updates"],
        "updates_per_sec": round(run["updates"] / critical, 1),
        "critical_path_seconds": round(critical, 6),
        "busy_seconds_max": round(run["busy_seconds_max"], 6),
        "busy_seconds_total": round(run["busy_seconds_total"], 6),
        "route_seconds": round(run["route_seconds"], 6),
        "merge_seconds": round(run["merge_seconds"], 6),
        "wall_seconds": round(run["wall_seconds"], 6),
    }


def test_shards_benchmark():
    # Correctness pin first: the in-process sharded replay must end
    # bit-identical to the unsharded server on the same stream.
    single_snapshots, single_updates = _run_single()
    inproc = _run_sharded(n_shards=2, n_workers=0)
    equivalent = (
        inproc["snapshots"] == single_snapshots
        and inproc["updates"] == single_updates
    )

    # Scaling: every shard count runs with one multiprocessing worker
    # per shard.  Interleave repetitions so slow system phases hit all
    # configurations alike; the best repetition per count is reported.
    best: dict[int, dict] = {}
    for _ in range(REPEATS):
        for n in SHARD_COUNTS:
            run = _run_sharded(n_shards=n, n_workers=n)
            if (
                n not in best
                or run["critical_path_seconds"]
                < best[n]["critical_path_seconds"]
            ):
                best[n] = run

    # Kernel-counter replay (untimed, in-process so one pass collects
    # every shard's registry).
    shard_kernels = _shard_kernel_counters(
        _run_sharded(
            n_shards=SHARD_COUNTS[-1], n_workers=0,
            metrics=MetricsRegistry(),
        )
    )

    # Merge exactness: the same closed loop, with the cross-shard kNN
    # merge re-ranking boundary candidates at held vs probed positions.
    merge_exactness = _run_accuracy()

    base = best[SHARD_COUNTS[0]]
    scaling = {
        str(n): round(
            base["critical_path_seconds"]
            / best[n]["critical_path_seconds"],
            3,
        )
        for n in SHARD_COUNTS
    }
    busy_scaling = {
        str(n): round(
            base["busy_seconds_max"] / best[n]["busy_seconds_max"], 3
        )
        for n in SHARD_COUNTS
    }
    document = {
        "benchmark": "shards",
        "smoke": SMOKE,
        "scenario": {
            "num_objects": NUM_OBJECTS,
            "num_queries": NUM_QUERIES,
            "ticks": TICKS,
            "movers_per_tick": MOVERS_PER_TICK,
            "grid_m": GRID_M,
            "sigma": SIGMA,
            "seed": SEED,
        },
        "methodology": (
            "updates_per_sec = updates / (max per-shard process CPU time "
            "+ coordinator route + merge CPU time); the replay's wall "
            "time on one core per shard, immune to CI timesharing"
        ),
        "shards": {str(n): _timing(best[n]) for n in SHARD_COUNTS},
        "scaling_vs_one_shard": scaling,
        "busy_scaling_vs_one_shard": busy_scaling,
        "shard_kernels": shard_kernels,
        "equivalent": equivalent,
        "merge_exactness": {
            "scenario": ACC_SCENARIO,
            **merge_exactness,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_shards.json"
    out.write_text(json.dumps(document, indent=2) + "\n")
    print()
    print(json.dumps(document, indent=2))

    assert equivalent, (
        "in-process sharded replay diverged from the single-server "
        "baseline — see BENCH_shards.json"
    )
    probed = merge_exactness["probed"]
    held = merge_exactness["held"]
    assert probed["refresh_probe_count"] > 0
    assert probed["accuracy"] >= REQUIRED_PROBED_ACCURACY, (
        f"refresh-probe merge accuracy {probed['accuracy']} fell below "
        f"{REQUIRED_PROBED_ACCURACY} (held-position merge: "
        f"{held['accuracy']})"
    )
    assert probed["accuracy"] >= held["accuracy"], (
        "probing made the merge *less* accurate — the re-rank is wrong"
    )
    if not SMOKE:
        at_4 = scaling["4"]
        assert at_4 >= REQUIRED_SCALING_AT_4, (
            f"4-shard critical-path scaling {at_4}x fell below the "
            f"required {REQUIRED_SCALING_AT_4}x"
        )
        busy_at_4 = busy_scaling["4"]
        assert busy_at_4 >= REQUIRED_BUSY_SCALING_AT_4, (
            f"4-shard busy-time scaling {busy_at_4}x fell below the "
            f"required {REQUIRED_BUSY_SCALING_AT_4}x — the sharded "
            f"component itself stopped scaling"
        )
        append_trajectory(
            "shards.4", document["shards"]["4"]["updates_per_sec"]
        )

"""Hot-path benchmark: the server's steady-state update loop (docs/PERFORMANCE.md).

Drives the ``DatabaseServer`` directly (no simulator clock) over a
steady-state scenario: a district holding every query quarantine area
plus background traffic through query-free cells — the regime the
generation-stamped grid caches and the certified no-op exit are built
for.  A pre-generated report plan is replayed against a fresh server;
the best of ``REPEATS`` timed replays is recorded under ``cached``, and
a separate instrumented replay feeds the grid-cache hit-rate floor and
the flight-recorder invariant check.  The caches' correctness is pinned
by ``tests/test_hotpath_caches.py``, which checks every touched cell's
cached views against a brute-force recomputation.

Emits ``benchmarks/results/BENCH_hotpath.json`` — the tracked perf
baseline subsequent PRs must not regress.  ``HOTPATH_SMOKE=1`` shrinks
the scenario for CI; the committed JSON comes from a full run.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time

from conftest import RESULTS_DIR, SCRATCH_DIR, append_trajectory

from repro.core.queries import KNNQuery, RangeQuery
from repro.core.server import DatabaseServer, ServerConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import EventLog, MetricsRegistry, diagnose

SMOKE = os.environ.get("HOTPATH_SMOKE") == "1"

SEED = 7
GRID_M = 20
SIGMA = 0.004  # per-tick gaussian step of a mover
#: Fraction of the space (per axis) holding every query quarantine area.
#: Steady-state monitoring means most traffic is no-churn (Section 3.3:
#: only the buckets touching ``p_lst`` and ``p`` can change a result), so
#: the scenario keeps query coverage sparse — a quarter of each axis —
#: and routes ~95% of objects uniformly through the whole space.  The
#: district traffic keeps the busy path (reevaluation, probes, ring
#: geometry) honest in the same run.
DISTRICT = 0.25
if SMOKE:
    NUM_OBJECTS, NUM_QUERIES, TICKS = 400, 16, 10
else:
    NUM_OBJECTS, NUM_QUERIES, TICKS = 3000, 30, 40
MOVERS_PER_TICK = NUM_OBJECTS // 5
#: Timed repetitions; the best run counts (the standard
#: way to strip scheduler / frequency-scaling noise from wall clocks).
REPEATS = 1 if SMOKE else 3

#: Floor enforced by CI (the bench-hotpath job runs this in smoke mode).
MIN_HIT_RATE = 0.5


def _build():
    """World + replay plan, fully determined by ``SEED``.

    Query objects are stateful (they carry their live result sets), so
    each run rebuilds the world from scratch; determinism makes every
    build identical.
    """
    rng = random.Random(SEED)
    positions = {}
    for n in range(NUM_OBJECTS):
        if n % 50 < 47:  # city-wide traffic across the whole space
            p = Point(rng.random(), rng.random())
        else:  # residents of the monitored district
            p = Point(rng.random() * DISTRICT, rng.random() * DISTRICT)
        positions[f"o{n}"] = p
    queries = []
    for i in range(NUM_QUERIES):
        if i % 2:
            x = rng.random() * (DISTRICT - 0.04)
            y = rng.random() * (DISTRICT - 0.04)
            queries.append(
                RangeQuery(Rect(x, y, x + 0.03, y + 0.03), query_id=f"r{i:03d}")
            )
        else:
            center = Point(
                rng.random() * DISTRICT, rng.random() * DISTRICT
            )
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


def _run(metrics=None, events=None):
    """Replay the plan against a fresh server; time only the update loop."""
    positions, queries, plan = _build()
    live = dict(positions)
    server = DatabaseServer(
        lambda oid: live[oid],
        ServerConfig(grid_m=GRID_M),
        metrics=metrics,
        events=events,
    )
    server.load_objects(live.items())
    for query in queries:
        server.register_query(query, time=0.0)
    latencies = []
    clock = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for batch in plan:
            clock += 1.0
            batch_started = time.perf_counter()
            live.update(batch)
            server.handle_location_updates(batch, time=clock)
            latencies.append(time.perf_counter() - batch_started)
        total = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    server.validate()
    return {
        "total_seconds": total,
        "latencies": sorted(latencies),
        "updates": server.stats.location_updates,
    }


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def _timing(run: dict) -> dict:
    return {
        "updates": run["updates"],
        "total_seconds": round(run["total_seconds"], 6),
        "updates_per_sec": round(run["updates"] / run["total_seconds"], 1),
        "batch_seconds": {
            "p50": round(_percentile(run["latencies"], 0.50), 6),
            "p95": round(_percentile(run["latencies"], 0.95), 6),
        },
    }


def test_hotpath_benchmark():
    # The best repetition is the reported timing.
    cached = min(
        (_run() for _ in range(REPEATS)), key=lambda run: run["total_seconds"]
    )

    # Metrics replay (separate so instrument costs stay out of the
    # timings).  The flight recorder rides along: its tail is archived
    # for CI post-mortems, and the stream is replayed through the
    # diagnostics invariants — a regression that breaks safe-region
    # containment fails here even if all counters look plausible.
    registry = MetricsRegistry()
    recorder = EventLog(capacity=50_000)
    _run(metrics=registry, events=recorder)
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    recorder.dump(SCRATCH_DIR / "BENCH_hotpath_flight.jsonl")
    findings = diagnose([event.to_dict() for event in recorder.events()])
    assert findings.ok, "invariant violations:\n" + findings.render()
    counters = registry.to_dict()["counters"]
    gauges = registry.to_dict()["gauges"]
    hits = counters.get("grid.cache.hits", 0)
    misses = counters.get("grid.cache.misses", 0)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0

    document = {
        "benchmark": "hotpath",
        "smoke": SMOKE,
        "scenario": {
            "num_objects": NUM_OBJECTS,
            "num_queries": NUM_QUERIES,
            "ticks": TICKS,
            "movers_per_tick": MOVERS_PER_TICK,
            "grid_m": GRID_M,
            "seed": SEED,
        },
        "cached": _timing(cached),
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hit_rate, 4),
            "fastpath_updates": counters.get("server.update.fastpath", 0),
            "sr_recompute_skipped": counters.get(
                "server.sr_recompute.skipped", 0
            ),
            "occupied_cells": gauges.get("grid.occupied_cells", 0),
            "cell_occupancy_peak": gauges.get("grid.cell_occupancy.peak", 0),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_hotpath.json"
    out.write_text(json.dumps(document, indent=2) + "\n")
    print()
    print(json.dumps(document, indent=2))

    assert hit_rate >= MIN_HIT_RATE, f"cache hit rate collapsed: {hit_rate:.2%}"
    if not SMOKE:
        append_trajectory(
            "hotpath.cached", document["cached"]["updates_per_sec"]
        )

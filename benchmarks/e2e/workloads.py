"""The four workloads and their generated inputs.

Why each one exists is recorded once, in the root ``BENCHMARK.json``
(and at length in README.md); this file holds what they are.  Every
input is a function of ``(workload, seed, seconds, smoke)`` only; the
program under test never sees the seed, just the generated scenario or
report plan.  ``seconds`` scales the *simulated* monitoring period
(or the tick count), so the work of a run is fixed before it starts and
a faster server cannot make the run look longer or shorter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.queries import KNNQuery, RangeQuery
from repro.experiments.figures import BENCH_BASE
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.simulation.scenario import Scenario, scaled_q_len

#: ``--seconds`` value the ``period`` / ``ticks`` figures below are
#: stated for; any other value scales them linearly.
NOMINAL_SECONDS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "loop" (SRBSimulation) or "replay" (server only)
    num_objects: int
    num_queries: int
    #: Loops: simulated time units monitored per NOMINAL_SECONDS.
    #: Replay: ticks per NOMINAL_SECONDS.
    period: float
    #: Accuracy checkpoints per loop run (replay: every CHURN_EVERY ticks).
    checkpoints: int
    #: A checkpoint whose share of exact query results is below this
    #: counts as a failed operation.
    accuracy_floor: float
    #: Percentile reported as ``report_lat_tail_us`` — the highest one
    #: with at least ten samples beyond it.
    tail_percentile: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int
    q_len: float | None = None    # None: density-preserving scaled_q_len(N)
    shards: int = 0
    shard_workers: int = 0


WORKLOADS = (
    Workload(
        name="loop_20k",
        kind="loop", num_objects=20_000, num_queries=200,
        period=1.0, checkpoints=10, accuracy_floor=0.93,
        tail_percentile=99, setups=2,
    ),
    Workload(
        name="loop_100k",
        kind="loop", num_objects=100_000, num_queries=1_000,
        period=0.1, checkpoints=2, accuracy_floor=0.9,
        tail_percentile=99, setups=1, q_len=0.005,
    ),
    Workload(
        name="shard_loop_20k",
        kind="loop", num_objects=20_000, num_queries=200,
        period=0.1, checkpoints=5, accuracy_floor=0.85,
        tail_percentile=99, setups=2, shards=4, shard_workers=2,
    ),
    Workload(
        name="replay_firehose_20k",
        kind="replay", num_objects=20_000, num_queries=200,
        period=100, checkpoints=0, accuracy_floor=1.0,
        tail_percentile=90, setups=2,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: ``--smoke`` divides N and W by this (the CI-sized ladder).
SMOKE_DIVISOR = 10

GRID_M = 50


def sizes(workload: Workload, smoke: bool) -> tuple[int, int]:
    """``(num_objects, num_queries)`` for a full or smoke run."""
    if smoke:
        return (workload.num_objects // SMOKE_DIVISOR,
                workload.num_queries // SMOKE_DIVISOR)
    return workload.num_objects, workload.num_queries


def loop_scenario(
    workload: Workload, seed: int, seconds: float, smoke: bool
) -> Scenario:
    """The closed-loop scenario (ISSUE 11; EXPERIMENTS.md densities)."""
    n, w = sizes(workload, smoke)
    duration = workload.period * seconds / NOMINAL_SECONDS
    scenario = BENCH_BASE.with_overrides(
        num_objects=n,
        num_queries=w,
        q_len=workload.q_len or scaled_q_len(n),
        k_max=5,
        grid_m=GRID_M,
        delay=0.0,
        duration=duration,
        sample_interval=duration / workload.checkpoints,
        seed=seed,
        shards=workload.shards,
        shard_workers=workload.shard_workers,
    )
    times = scenario.sample_times()
    if len(times) != workload.checkpoints or times[-1] > duration:
        # duration / interval rounded below the count, or the last
        # checkpoint rounded past the end: stretch the period by a hair.
        scenario = scenario.with_overrides(duration=duration * (1 + 1e-6))
    return scenario


# ---------------------------------------------------------------------------
# Replay: the hot-path bench's generator (benchmarks/test_hotpath_bench.py)
# scaled to N = 20k, with query churn.

#: Per-axis share of the space holding every query; ~94 % of objects roam
#: the whole space through query-free cells, the rest live in the district.
DISTRICT = 0.25
RANGE_SIDE = 0.011
KNN_K = 3
SIGMA = 0.004            # per-tick gaussian step of a mover
MOVER_SHARE = 5          # one object in five reports each tick
CHURN_EVERY = 10         # ticks between query swaps / exactness checks


@dataclass
class ReplayWorld:
    positions: dict[str, Point]
    queries: list
    #: One list of ``(oid, position)`` reports per tick.
    plan: list[list[tuple[str, Point]]]
    #: Fresh queries, one registered at each churn tick.
    churn: list


def _replay_query(rng: random.Random, index: int):
    if index % 2:
        x = rng.random() * (DISTRICT - RANGE_SIDE)
        y = rng.random() * (DISTRICT - RANGE_SIDE)
        return RangeQuery(
            Rect(x, y, x + RANGE_SIDE, y + RANGE_SIDE), query_id=f"r{index:05d}"
        )
    center = Point(rng.random() * DISTRICT, rng.random() * DISTRICT)
    return KNNQuery(center, KNN_K, query_id=f"k{index:05d}")


def replay_ticks(workload: Workload, seconds: float) -> int:
    return max(CHURN_EVERY, round(workload.period * seconds / NOMINAL_SECONDS))


def replay_world(
    workload: Workload, seed: int, seconds: float, smoke: bool
) -> ReplayWorld:
    n, w = sizes(workload, smoke)
    ticks = replay_ticks(workload, seconds)
    rng = random.Random(seed)
    positions = {}
    for i in range(n):
        if i % 50 < 47:
            p = Point(rng.random(), rng.random())
        else:
            p = Point(rng.random() * DISTRICT, rng.random() * DISTRICT)
        positions[f"o{i:06d}"] = p
    queries = [_replay_query(rng, i) for i in range(w)]
    churn = [
        _replay_query(rng, w + i) for i in range(ticks // CHURN_EVERY)
    ]
    ids = sorted(positions)
    live = dict(positions)
    plan = []
    for _ in range(ticks):
        batch = []
        for oid in rng.sample(ids, n // MOVER_SHARE):
            p = live[oid]
            q = Point(
                min(max(p.x + rng.gauss(0.0, SIGMA), 0.0), 1.0),
                min(max(p.y + rng.gauss(0.0, SIGMA), 0.0), 1.0),
            )
            live[oid] = q
            batch.append((oid, q))
        plan.append(batch)
    return ReplayWorld(positions, queries, plan, churn)

"""Replay equivalence: sharded vs the single-server baseline.

The same pin family as ``tests/test_hotpath_caches.py``: sharding is a deployment change, not
a semantic one.  Driving the identical seeded report stream (with
cross-shard migrations and mid-run query churn) through a
``ShardedServer`` and a single ``DatabaseServer`` must produce the same
merged result snapshot at every tick and the same final object sets —
in-process mode exactly, and the ``multiprocessing`` mode identical to
the in-process mode (it is the same backend behind a pipe).
"""

import os
import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.sharding import ShardedServer


def _make_world(seed, n=90):
    rng = random.Random(seed)
    return {f"o{i}": Point(rng.random(), rng.random()) for i in range(n)}


def _make_stream(seed, world, ticks=60, movers=18):
    """A pre-generated report stream: [(t, [(oid, Point)])]."""
    positions = dict(world)
    rng = random.Random(seed + 1)
    stream = []
    for tick in range(1, ticks + 1):
        batch = []
        for oid in rng.sample(sorted(positions), movers):
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.gauss(0, 0.015), 0.0), 1.0),
                min(max(p.y + rng.gauss(0, 0.015), 0.0), 1.0),
            )
            batch.append((oid, positions[oid]))
        stream.append((tick * 1.0, batch))
    return stream


class _Oracle:
    """Ground truth the server probes; advanced alongside the stream."""

    def __init__(self, world):
        self.positions = dict(world)

    def __call__(self, oid):
        return self.positions[oid]

    def apply(self, batch):
        for oid, p in batch:
            self.positions[oid] = p


def _drive(server, oracle, world, stream, seed):
    rng = random.Random(seed + 2)
    server.load_objects(sorted(world.items()), 0.0)
    queries = []
    for i in range(10):
        if i % 2:
            x, y = rng.random() * 0.85, rng.random() * 0.85
            q = RangeQuery(Rect(x, y, x + 0.12, y + 0.12), query_id=f"r{i}")
        else:
            q = KNNQuery(Point(rng.random(), rng.random()), 3, query_id=f"k{i}")
        server.register_query(q, 0.0)
        queries.append(q)
    per_tick = []
    for tick, (t, batch) in enumerate(stream):
        oracle.apply(batch)
        server.handle_location_updates(batch, t)
        if tick == 20:  # mid-run churn, as in the kernel pin
            server.deregister_query(queries.pop(0))
        if tick == 30:
            late = KNNQuery(Point(0.45, 0.45), 4, query_id="k-late")
            server.register_query(late, t)
            queries.append(late)
        per_tick.append({q.query_id: q.result_snapshot() for q in queries})
    server.validate()
    return per_tick


@pytest.mark.parametrize("seed", [11, 12, 13])
@pytest.mark.parametrize("n_shards", [2, 3])
def test_in_process_sharding_matches_single_server(seed, n_shards):
    world = _make_world(seed)
    stream = _make_stream(seed, world)
    config = ServerConfig(grid_m=16, max_speed=0.04)

    o1 = _Oracle(world)
    single = DatabaseServer(o1, config)
    baseline = _drive(single, o1, world, stream, seed)

    o2 = _Oracle(world)
    sharded = ShardedServer(o2, config, n_shards=n_shards)
    merged = _drive(sharded, o2, world, stream, seed)

    assert merged == baseline  # every tick, every query, exact
    assert sharded.object_count == single.object_count
    assert sum(sharded.shard_object_counts()) == single.object_count
    # The stream crosses cell boundaries, so the pin exercised the
    # evict-and-re-add migration path, not just local updates.
    assert sharded.stats.location_updates == single.stats.location_updates


def test_multiprocessing_mode_matches_in_process():
    seed = 21
    world = _make_world(seed, n=70)
    stream = _make_stream(seed, world, ticks=30)
    config = ServerConfig(grid_m=16, max_speed=0.04)

    o1 = _Oracle(world)
    inproc = ShardedServer(o1, config, n_shards=2, n_workers=0)
    a = _drive(inproc, o1, world, stream, seed)

    o2 = _Oracle(world)
    with ShardedServer(o2, config, n_shards=2, n_workers=2) as multi:
        pids = {shard.process.pid for shard in multi._shards}
        assert os.getpid() not in pids and len(pids) == 2
        b = _drive(multi, o2, world, stream, seed)
        stats = multi.stats
    assert a == b
    assert stats.location_updates == inproc.stats.location_updates


def test_knn_merge_breaks_distance_ties_by_id():
    """Equidistant members on different shards merge deterministically.

    Two objects sit exactly symmetric about a kNN center that straddles
    a shard boundary; the merged top-k must pick the smaller id, exactly
    as the single server's evaluator does.
    """
    center = Point(0.5, 0.5)
    world = {
        "a": Point(0.25, 0.5),   # distance 0.25, west
        "b": Point(0.75, 0.5),   # distance 0.25, east
        "c": Point(0.5, 0.9),    # distance 0.40, filler
        "d": Point(0.1, 0.1),
    }
    config = ServerConfig(grid_m=16)

    o1 = _Oracle(world)
    single = DatabaseServer(o1, config)
    single.load_objects(sorted(world.items()), 0.0)
    q1 = KNNQuery(center, 1, query_id="k")
    single.register_query(q1, 0.0)

    for n_shards in (2, 3, 4):
        o2 = _Oracle(world)
        sharded = ShardedServer(o2, config, n_shards=n_shards)
        sharded.load_objects(sorted(world.items()), 0.0)
        q2 = KNNQuery(center, 1, query_id="k")
        sharded.register_query(q2, 0.0)
        assert q2.result_snapshot() == q1.result_snapshot()
        # k=2 covers both tied members regardless of the tie-break.
        q3 = KNNQuery(center, 2, query_id="k2")
        sharded.register_query(q3, 0.0)
        assert set(q3.results) == {"a", "b"}


def test_evict_object_repairs_local_results():
    """The migration primitive: eviction refills kNN from the remainder."""
    world = {
        "a": Point(0.50, 0.52),
        "b": Point(0.52, 0.50),
        "c": Point(0.80, 0.80),
    }
    oracle = _Oracle(world)
    server = DatabaseServer(oracle, ServerConfig(grid_m=16))
    server.load_objects(sorted(world.items()), 0.0)
    knn = KNNQuery(Point(0.5, 0.5), 2, query_id="k")
    rng = RangeQuery(Rect(0.4, 0.4, 0.6, 0.6), query_id="r")
    server.register_query(knn, 0.0)
    server.register_query(rng, 0.0)
    assert set(knn.results) == {"a", "b"}
    assert rng.results == {"a", "b"}

    outcome = server.evict_object("a", time=1.0)
    assert "a" not in server
    assert set(knn.results) == {"b", "c"}  # refilled from the remainder
    assert rng.results == {"b"}
    changed = {c.query_id for c in outcome.changes}
    assert changed == {"k", "r"}
    server.validate()

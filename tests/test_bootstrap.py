"""The one-pass start-up: ``bootstrap(objects, queries)``.

At start-up every object has just reported its exact position, so the
server evaluates the first queries over points, derives every first safe
region once and probes nobody.  These tests pin that against the path it
replaces — ``load_objects`` followed by one ``register_query`` per query
— on a single server, in-process shards and worker-process shards.

Start-up is also a bulk operation (docs/PERFORMANCE.md "Set-up at paper
scale"): one columnar cell pass, one shared grant per query-free cell,
the cycle collector paused throughout.  The second half of this file
pins those against the per-object pass they replace — the object index
the pass settles in place against a fresh load of the final regions,
the engine's columnar positions and heapified first exits against one
read and one push per client — and the collector's state against what
the caller had.
"""

import gc
import random

import numpy as np
import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.extensions import CircleRangeQuery, ProximityPairQuery
from repro.geometry import Point, Rect
from repro.index.cells import CellObjectIndex
from repro.mobility import RandomWaypointModel
from repro.obs import EventLog, MetricsRegistry, diagnose
from repro.runtime import paused_gc
from repro.sharding import ShardedServer
from repro.sharding.backend import query_from_spec
from repro.sharding.worker import WorkerShard
from repro.simulation import Scenario, SRBSimulation
from repro.simulation.engine import _PRIO_EXIT, _PRIO_SAMPLE
from tests.test_outsider_standoff import DENSE, dense_queries

N_OBJECTS = 250
CONFIG = ServerConfig(grid_m=10)


def _queries(seed, extension):
    rng = random.Random(seed)
    queries = []
    for i in range(6):
        x, y = rng.random() * 0.88, rng.random() * 0.88
        queries.append(
            RangeQuery(Rect(x, y, x + 0.1, y + 0.1), query_id=f"r{i}")
        )
    for i in range(8):
        queries.append(KNNQuery(
            Point(rng.random(), rng.random()), rng.randint(1, 5),
            order_sensitive=i % 2 == 0, query_id=f"k{i}",
        ))
    if extension:
        queries.append(CircleRangeQuery(Point(0.5, 0.5), 0.12, query_id="c0"))
    return queries


def _brute_force(query, positions):
    if isinstance(query, RangeQuery):
        return frozenset(
            o for o, p in positions.items() if query.rect.contains_point(p)
        )
    if isinstance(query, CircleRangeQuery):
        return frozenset(
            o for o, p in positions.items()
            if query.center.distance_to(p) <= query.radius
        )
    ranked = sorted(
        positions, key=lambda o: (query.center.distance_to(positions[o]), o)
    )[:query.k]
    return tuple(ranked) if query.order_sensitive else frozenset(ranked)


class _Oracle:
    """The probe channel; ``armed`` makes any probe a test failure."""

    def __init__(self, live):
        self.live = live
        self.armed = False

    def __call__(self, oid):
        assert not self.armed, f"bootstrap probed {oid!r}"
        return self.live[oid]


def _make_single(oracle):
    return DatabaseServer(oracle, CONFIG)


def _make_in_process(oracle):
    return ShardedServer(oracle, CONFIG, n_shards=3)


def _make_workers(oracle):
    return ShardedServer(oracle, CONFIG, n_shards=2, n_workers=2)


@pytest.mark.parametrize("make_server, seed", [
    (_make_single, 0), (_make_single, 1),
    (_make_in_process, 2), (_make_workers, 3),
])
def test_bulk_bootstrap_matches_load_then_register(make_server, seed):
    sharded = make_server is not _make_single
    rng = random.Random(seed)
    live = {i: Point(rng.random(), rng.random()) for i in range(N_OBJECTS)}
    start = dict(live)

    bulk_oracle = _Oracle(live)
    bulk = make_server(bulk_oracle)
    # Extension queries do not route across shards.
    bulk_queries = _queries(seed, extension=not sharded)
    bulk_oracle.armed = True
    regions = bulk.bootstrap(start.items(), bulk_queries)
    bulk_oracle.armed = False
    assert bulk.stats.probes == 0
    assert bulk.stats.queries_registered >= len(bulk_queries)

    loop = make_server(_Oracle(live))
    loop_queries = _queries(seed, extension=not sharded)
    loop.load_objects(start.items())
    for query in loop_queries:
        loop.register_query(query)
    assert loop.stats.probes > 0

    try:
        for server, queries in ((bulk, bulk_queries), (loop, loop_queries)):
            server.validate()
            for query in queries:
                assert query.result_snapshot() == _brute_force(query, start)
            for oid, position in start.items():
                assert server.safe_region_of(oid).contains_point(position)
        assert regions == {
            oid: bulk.safe_region_of(oid) for oid in start
        }

        for step in range(1, 501):
            oid = rng.randrange(N_OBJECTS)
            p = live[oid]
            live[oid] = Point(
                min(max(p.x + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                min(max(p.y + rng.uniform(-0.05, 0.05), 0.0), 1.0),
            )
            for server in (bulk, loop):
                # A single server is exact while clients stay silent
                # inside their regions; the cross-shard kNN merge ranks
                # by held positions, so there every move is a report.
                if sharded or not server.safe_region_of(oid).contains_point(
                    live[oid]
                ):
                    server.handle_location_update(oid, live[oid], step * 0.01)
            for mine, theirs in zip(bulk_queries, loop_queries):
                expected = _brute_force(mine, live)
                assert mine.result_snapshot() == expected, (step, mine.query_id)
                assert theirs.result_snapshot() == expected, (step, mine.query_id)
        bulk.validate()
        loop.validate()
    finally:
        if sharded:
            bulk.close()
            loop.close()


def test_bootstrap_derives_regions_around_a_moving_anchor():
    """An extension query's anchor gets its region before its neighbours.

    ``ProximityPairQuery`` cuts its neighbours' regions against disks
    anchored at the box granted to the anchor, so the anchor — loaded
    last here — must be derived first, as the per-query path does for
    the objects its evaluator probes.
    """
    rng = random.Random(4)
    live = {i: Point(rng.random(), rng.random()) for i in range(120)}
    anchor = 119
    server = DatabaseServer(_Oracle(live), ServerConfig(grid_m=8))
    pair = ProximityPairQuery(anchor, 0.18, query_id="pair")
    server.bootstrap(live.items(), [pair])
    assert server.stats.probes == 0
    server.validate()
    assert pair.results == {
        oid for oid, p in live.items()
        if oid != anchor and live[anchor].distance_to(p) <= pair.radius
    }
    granted = server.safe_region_of(anchor)
    assert granted.width > 0 and pair._focal_region.contains_rect(granted)
    inner, outer = pair._inner_disk(), pair._outer_disk()
    checked = 0
    for oid, position in live.items():
        region = server.safe_region_of(oid)
        # Objects inside the band between the disks cannot be separated
        # from the anchor's box; the query resolves them by probing.
        if oid in pair.results and inner.contains_point(position):
            assert region.max_dist_to_point(inner.center) <= inner.radius + 1e-9
            checked += 1
        elif oid != anchor and not outer.contains_point(position):
            assert region.min_dist_to_point(outer.center) >= outer.radius - 1e-9
            checked += 1
    assert checked > 100


def test_load_objects_is_bootstrap_without_queries():
    rng = random.Random(7)
    world = {i: Point(rng.random(), rng.random()) for i in range(400)}

    def build(call):
        registry = MetricsRegistry()
        server = DatabaseServer(world.__getitem__, CONFIG, metrics=registry)
        regions = call(server)
        server.validate()
        return server, regions, registry

    loaded, regions_a, metrics_a = build(
        lambda s: s.load_objects(world.items(), 0.5)
    )
    booted, regions_b, metrics_b = build(
        lambda s: s.bootstrap(world.items(), (), 0.5)
    )
    assert regions_a == regions_b
    assert set(regions_a) == set(world)
    for oid in world:
        a, b = loaded._objects[oid], booted._objects[oid]
        assert a == b
        # Every cell is query-free: the full cell, certified as such.
        assert a.sr_cert[2] is None
        assert a.safe_region == loaded.query_index.cell_rect(a.sr_cert[0])
    assert metrics_a.to_dict()["gauges"] == metrics_b.to_dict()["gauges"]
    # No region leaves its home cell, so the wide list stays empty.
    assert metrics_a.value_of("object_index.wide") == 0
    assert not loaded.object_index.wide
    assert loaded.stats.probes == booted.stats.probes == 0


def test_bootstrap_runs_before_any_registration():
    world = {0: Point(0.1, 0.1), 1: Point(0.9, 0.9)}
    server = DatabaseServer(world.__getitem__, CONFIG)
    server.bootstrap(world.items(), [KNNQuery(Point(0.5, 0.5), 1)])
    with pytest.raises(RuntimeError):
        server.bootstrap([(2, Point(0.5, 0.5))])
    with pytest.raises(RuntimeError):
        server.load_objects([(2, Point(0.5, 0.5))])
    with pytest.raises(KeyError):
        DatabaseServer(world.__getitem__, CONFIG).bootstrap(
            [(0, world[0]), (0, world[1])]
        )
    with ShardedServer(world.__getitem__, CONFIG, n_shards=2) as sharded:
        sharded.bootstrap(world.items())
        with pytest.raises(RuntimeError):
            sharded.bootstrap([(2, Point(0.5, 0.5))])


SMOKE = Scenario(
    num_objects=300,
    num_queries=16,
    mean_speed=0.02,
    mean_period=0.1,
    q_len=0.06,
    k_max=4,
    grid_m=8,
    duration=0.6,
    sample_interval=0.2,
    seed=3,
)


@pytest.mark.parametrize("shards", [0, 2])
def test_engine_bootstrap_sends_no_probe(shards):
    """The CI zero-bootstrap-probe gate (``.github/workflows/ci.yml``)."""
    log = EventLog(capacity=500_000)
    sim = SRBSimulation(SMOKE.with_overrides(shards=shards), events=log)
    sim._bootstrap()
    server = sim.server
    assert server.stats.probes == 0
    assert server.stats.location_updates == 0
    server.validate()
    registered: dict[str, int] = {}
    for event in log.events():
        assert event.kind not in ("probe", "update", "reevaluation")
        if event.kind == "query_registered":
            qid = event.to_dict()["query"]
            registered[qid] = registered.get(qid, 0) + 1
    # One registration per query on a single server; one per holder
    # shard when sharded — what mid-run registration emits too.
    assert registered == {
        query.query_id: (
            len(server.holders_of(query.query_id)) if shards else 1
        )
        for query in sim.queries
    }
    truth = sim.truth.evaluate_at(0.0)
    for query in sim.queries:
        assert query.result_snapshot() == truth[query.query_id]

    sim._bootstrap = lambda: None  # already done; ``run`` monitors on
    report = sim.run()
    assert report.costs.probes == server.stats.probes
    assert diagnose([e.to_dict() for e in log.events()]).ok


# ----------------------------------------------------------------------
# Bulk table load + per-cell grant  ==  the per-object pass


def _per_object_bootstrap(server, objects, queries, time=0.0):
    """Start-up one object at a time — the reference for the bulk pass.

    One ``GridIndex.cell_of`` and one table row (``Objects.put``) per
    object (not the batch ``cells_of_xy`` and ``Objects.load``), and
    every first region — a query-free cell's too — through
    ``_full_safe_region``.
    """
    table, grid = server._objects, server.query_index
    for oid, position in objects:
        cell = grid.cell_of(position)
        table.put(oid, grid.cell_rect(cell), position.x, position.y, cell, time)
    oids = list(table)
    order = server._bootstrap_queries(queries, oids, time) if queries else oids
    regions = {}
    for oid in order:
        row = table._row(oid)
        region = server._full_safe_region(oid, row, None)
        table.region[row] = region
        regions[oid] = region
    server.object_index = CellObjectIndex(grid, table)
    for oid, region in regions.items():
        server.object_index.insert(oid, region)
    return regions


def _fingerprint(server):
    """Everything start-up leaves behind, in a comparable form."""
    grid = server.query_index

    def certificate(cert):
        if cert is None or cert[2] is None:
            return cert
        return cert[:2] + (tuple((q.query_id, d) for q, d in cert[2]),)

    return {
        # Table order, held positions and cells.
        "states": [
            (oid, s.safe_region, s.p_lst, s.cell, s.last_update_time,
             certificate(s.sr_cert))
            for oid, s in server._objects.items()
        ],
        # Every cell is the grid's own interned id.
        "interned": all(
            s.cell is grid.cell_of(s.p_lst) for s in server._objects.values()
        ),
        "positions": [
            (oid, server.positions.get(oid)) for oid in server._objects
        ],
        "indexed": [
            (oid, server.object_index.rect_of(oid)) for oid in server._objects
        ],
        "queries": sorted(
            (q.query_id, q.result_snapshot(), getattr(q, "radius", None))
            for q in server.queries()
        ),
    }


def _dense_world():
    """The dense CI world at start-up: 30 objects per cell."""
    model = RandomWaypointModel(
        DENSE.mean_speed, DENSE.mean_period, DENSE.space, seed=DENSE.seed
    )
    world = {
        oid: model.create(oid).position_at(0.0)
        for oid in range(DENSE.num_objects)
    }
    return world, lambda: dense_queries(DENSE.seed, 3), ServerConfig(grid_m=4)


def _random_world():
    """5k uniform objects on 400 cells."""
    rng = random.Random(11)
    world = {i: Point(rng.random(), rng.random()) for i in range(5_000)}
    return world, lambda: _queries(11, extension=False), ServerConfig(grid_m=20)


WORLDS = {"dense": _dense_world, "random-5k": _random_world}


@pytest.mark.parametrize("world_name", WORLDS)
def test_bulk_start_up_matches_the_per_object_pass(world_name):
    world, make_queries, config = WORLDS[world_name]()
    bulk = DatabaseServer(world.__getitem__, config)
    regions = bulk.bootstrap(world.items(), make_queries())
    reference = DatabaseServer(world.__getitem__, config)
    expected = _per_object_bootstrap(reference, world.items(), make_queries())
    assert list(regions.items()) == list(expected.items())
    assert _fingerprint(bulk) == _fingerprint(reference)
    bulk.validate()
    reference.validate()
    free = [
        state for state in bulk._objects.values()
        if state.sr_cert is not None and state.sr_cert[2] is None
    ]
    # Both kinds of region are well represented.
    assert len(world) // 8 < len(free) < len(world) - len(world) // 8
    for state in free:
        assert state.safe_region is bulk.query_index.cell_rect(state.sr_cert[0])


@pytest.mark.parametrize("world_name", WORLDS)
def test_bulk_start_up_matches_the_per_object_pass_on_every_shard(world_name):
    world, make_queries, config = WORLDS[world_name]()
    cluster = ShardedServer(world.__getitem__, config, n_shards=3)
    workers = ShardedServer(
        world.__getitem__, config, n_shards=3, n_workers=2
    )
    try:
        shipped = {}
        for shard in cluster._shards:
            def recording(pairs, specs, time, shard=shard,
                          bootstrap=shard.backend.bootstrap):
                shipped[shard.shard_id] = (pairs, specs, time)
                return bootstrap(pairs, specs, time)

            shard.backend.bootstrap = recording
        regions = cluster.bootstrap(world.items(), make_queries())
        cluster.validate()
        assert sum(len(pairs) for pairs, _, _ in shipped.values()) == len(world)
        for shard in cluster._shards:
            pairs, specs, time = shipped[shard.shard_id]
            reference = DatabaseServer(world.__getitem__, config)
            _per_object_bootstrap(
                reference,
                [(oid, Point(x, y)) for oid, (x, y) in pairs],
                [query_from_spec(spec) for spec in specs],
                time,
            )
            assert _fingerprint(shard.backend.server) == _fingerprint(reference)

        # Worker processes host the same backend: same regions, same
        # per-shard state, same merged results.
        worker_queries = make_queries()
        assert workers.bootstrap(world.items(), worker_queries) == regions
        workers.validate()
        for ours, theirs in zip(cluster._shards, workers._shards):
            assert ours.call("snapshot") == theirs.call("snapshot")
        for query in worker_queries:
            assert query.result_snapshot() == _brute_force(query, world)
    finally:
        cluster.close()
        workers.close()


def test_bulk_store_load_extends_a_populated_store():
    """A second query-free load appends to the object table of the first."""
    rng = random.Random(2)
    world = {i: Point(rng.random(), rng.random()) for i in range(600)}
    first = dict(list(world.items())[:250])
    rest = dict(list(world.items())[250:])
    twice = DatabaseServer(world.__getitem__, CONFIG)
    twice.load_objects(first.items())
    twice.load_objects(rest.items())
    reference = DatabaseServer(world.__getitem__, CONFIG)
    _per_object_bootstrap(reference, world.items(), [])
    assert _fingerprint(twice) == _fingerprint(reference)
    twice.validate()


# ----------------------------------------------------------------------
# One object index: the point index becomes the object index in place


def _edge_world(covered):
    """Objects on the cell edge x = 0.85 of a 20 x 20 grid: truncation
    puts each in the cell the edge starts, whose closed rectangle begins
    a rounding step above 0.85 — a point index keeps them in ``wide``.
    ``covered``: a range query covers that column of cells, else every
    query keeps to the left half."""
    rng = random.Random(7)
    world = {i: Point(0.85, rng.random()) for i in range(300)}
    world.update(
        (i, Point(rng.random(), rng.random())) for i in range(300, 1_800)
    )

    def queries():
        rng = random.Random(8)
        made = []
        for i in range(6):
            x, y = rng.random() * 0.3, rng.random() * 0.9
            made.append(RangeQuery(Rect(x, y, x + 0.1, y + 0.1), query_id=f"r{i}"))
        for i in range(6):
            made.append(KNNQuery(
                Point(0.1 + rng.random() * 0.3, rng.random()), 1 + i % 5,
                order_sensitive=i % 2 == 0, query_id=f"k{i}",
            ))
        if covered:
            made.append(RangeQuery(Rect(0.84, 0.0, 0.86, 1.0), query_id="edge"))
        return made

    return world, queries, ServerConfig(grid_m=20)


def _moving_anchor_world():
    """An extension query anchored at a moving object: the anchor's
    region is derived first, out of table order."""
    rng = random.Random(4)
    world = {i: Point(rng.random(), rng.random()) for i in range(120)}

    def queries():
        return [ProximityPairQuery(119, 0.18, query_id="pair")]

    return world, queries, ServerConfig(grid_m=8)


INDEX_WORLDS = {
    **WORLDS,
    "cell-edge-query-free": lambda: _edge_world(covered=False),
    "cell-edge-covered": lambda: _edge_world(covered=True),
    "moving-anchor": _moving_anchor_world,
}


def _buckets(index):
    """Every bucket's entries and ``wide``'s, in iteration order."""
    return (
        [(cell, list(bucket.items())) for cell, bucket in index._cells.items()],
        list(index.wide.items()),
    )


@pytest.mark.parametrize("world_name", INDEX_WORLDS)
def test_bootstrap_index_equals_a_fresh_load(world_name):
    """The index start-up leaves holds what ``CellObjectIndex.load`` of
    the final regions in derivation order holds — the per-object
    reference's index — bucket by bucket, entry by entry."""
    world, make_queries, config = INDEX_WORLDS[world_name]()
    bulk = DatabaseServer(world.__getitem__, config)
    bulk.bootstrap(world.items(), make_queries())
    reference = DatabaseServer(world.__getitem__, config)
    _per_object_bootstrap(reference, world.items(), make_queries())
    assert _buckets(bulk.object_index) == _buckets(reference.object_index)
    bulk.validate()
    if world_name.startswith("cell-edge"):
        # Every point outside the closed rectangle of its cell is one
        # on the edge, in the kind of cell the world is named for.
        grid, table = bulk.query_index, bulk._objects
        outside = np.flatnonzero(~grid.cells_hold_xy(table.x, table.y))
        assert outside.tolist() == list(range(300))
        assert {
            grid.has_queries_in_cell(table.cell[row]) for row in outside
        } == {world_name == "cell-edge-covered"}
        # The point index homes each point where ``_home_of`` does.
        homes, points = table.points(range(len(table)), grid)
        home_of = CellObjectIndex(grid)._home_of
        assert homes == [home_of(point) for point in points]
        assert homes.count(None) == 300


@pytest.mark.parametrize("world_name", WORLDS)
def test_bootstrap_index_equals_a_fresh_load_on_every_shard(world_name):
    world, make_queries, config = WORLDS[world_name]()
    cluster = ShardedServer(world.__getitem__, config, n_shards=3)
    try:
        shipped = {}
        for shard in cluster._shards:
            def recording(pairs, specs, time, shard=shard,
                          bootstrap=shard.backend.bootstrap):
                shipped[shard.shard_id] = (pairs, specs, time)
                return bootstrap(pairs, specs, time)

            shard.backend.bootstrap = recording
        cluster.bootstrap(world.items(), make_queries())
        assert len(shipped) == 3
        for shard in cluster._shards:
            pairs, specs, time = shipped[shard.shard_id]
            reference = DatabaseServer(world.__getitem__, config)
            _per_object_bootstrap(
                reference,
                [(oid, Point(x, y)) for oid, (x, y) in pairs],
                [query_from_spec(spec) for spec in specs],
                time,
            )
            assert _buckets(shard.backend.server.object_index) == _buckets(
                reference.object_index
            )
    finally:
        cluster.close()


# ----------------------------------------------------------------------
# The engine's start-up: positions and first exits as columns


def _per_client_start_up(sim):
    """``SRBSimulation._bootstrap`` one client at a time — the reference
    for its column pass: one ``position_at(0.0)`` per client, the
    ``(oid, Point)`` pairs handed to the server, and one region adopted
    and one first exit scheduled per client, in client order."""
    clients = sim._clients
    granted = sim.server.bootstrap(
        [
            (oid, trajectory.position_at(0.0))
            for oid, trajectory in clients.trajectories.items()
        ],
        sim.queries, 0.0,
    )
    horizon = sim.scenario.duration
    poll = sim.scenario.client_poll_interval
    for oid in clients:
        client = clients[oid]
        client.adopt_safe_region(granted[oid])
        exit_at = max(client.next_exit_time(0.0, horizon), poll)
        if exit_at <= horizon:
            sim._schedule(exit_at, _PRIO_EXIT, "exit", (oid, client.epoch))
    for t in sim.scenario.sample_times():
        sim._schedule(t, _PRIO_SAMPLE, "sample", ())


@pytest.mark.parametrize("shards", [0, 2], ids=["single", "shards=2"])
def test_engine_start_up_matches_the_per_client_pass(shards):
    """On the dense world: the same heap, the same fleet cursors, the
    same client regions and epochs as the per-client reference."""
    scenario = DENSE.with_overrides(shards=shards)
    column, reference = SRBSimulation(scenario), SRBSimulation(scenario)
    try:
        column._bootstrap()
        _per_client_start_up(reference)
        assert sorted(column._heap) == sorted(reference._heap)
        for sim in (column, reference):
            assert sim.clients.trajectories is sim.truth.trajectories()
        assert list(column.truth.trajectories()._at) == list(
            reference.truth.trajectories()._at
        )
        assert column._clients.regions == reference._clients.regions
        assert list(column._clients.epochs) == list(reference._clients.epochs)
        assert set(column._clients.epochs) == {1}
    finally:
        if shards:
            column.server.close()
            reference.server.close()


# ----------------------------------------------------------------------
# The collector is paused during start-up, and only then


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the collector on, then off; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_paused_gc_restores_the_state_it_found(collector):
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit must not resume
    assert gc.isenabled() is collector
    with pytest.raises(KeyError):
        with paused_gc():
            raise KeyError("boom")
    assert gc.isenabled() is collector


@pytest.mark.parametrize("shards", [0, 2])
def test_start_up_restores_the_collector_state(collector, shards):
    """The CI collector-state gate (``.github/workflows/ci.yml``)."""
    paused = []

    def reporting(world):
        for item in world.items():
            paused.append(not gc.isenabled())
            yield item

    world = {0: Point(0.1, 0.1), 1: Point(0.9, 0.9), 2: Point(0.4, 0.6)}
    if shards:
        server = ShardedServer(world.__getitem__, CONFIG, n_shards=shards)
    else:
        server = DatabaseServer(world.__getitem__, CONFIG)
    server.bootstrap(reporting(world), [KNNQuery(Point(0.5, 0.5), 1)])
    assert paused == [True] * 3
    assert gc.isenabled() is collector
    # A duplicate object aborts the pass; the collector still resumes.
    duplicated = (
        ShardedServer(world.__getitem__, CONFIG, n_shards=shards)
        if shards else DatabaseServer(world.__getitem__, CONFIG)
    )
    with pytest.raises(KeyError):
        duplicated.bootstrap([(0, world[0]), (0, world[1])])
    assert gc.isenabled() is collector

    class Spy(MetricsRegistry):
        def counter(self, name):
            paused.append(not gc.isenabled())
            return super().counter(name)

    del paused[:]
    sim = SRBSimulation(SMOKE.with_overrides(shards=shards), metrics=Spy())
    assert paused and all(paused)
    assert gc.isenabled() is collector
    bootstrap = sim.server.bootstrap

    def spied(*args):
        # Entered from the engine's pause; the server's own nests in it.
        paused.append(not gc.isenabled())
        return bootstrap(*args)

    del paused[:]
    sim.server.bootstrap = spied
    sim._bootstrap()
    assert paused == [True]
    assert gc.isenabled() is collector
    sim.server.validate()
    with pytest.raises(ValueError):
        SRBSimulation(SMOKE.with_overrides(shards=shards, fault_spec="no=1"))
    assert gc.isenabled() is collector
    again = SRBSimulation(SMOKE.with_overrides(shards=shards))
    again.server.load_objects([(0, Point(0.5, 0.5))])
    # Object 0 is loaded already (a cluster refuses any second load).
    with pytest.raises(RuntimeError if shards else KeyError):
        again._bootstrap()
    assert gc.isenabled() is collector


def test_worker_forked_under_a_paused_collector_collects(collector):
    """Workers are forked from inside the engine's paused start-up."""
    with paused_gc():
        shard = WorkerShard(0, CONFIG, {}.__getitem__)
    try:
        assert shard.call("info")["gc_enabled"] is True
    finally:
        shard.close()
    sim = SRBSimulation(SMOKE.with_overrides(shards=2, shard_workers=2))
    try:
        sim._bootstrap()
        for shard in sim.server._shards:
            assert shard.call("info")["gc_enabled"] is True
    finally:
        sim.server.close()
    assert gc.isenabled() is collector

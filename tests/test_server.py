"""Integration tests for the database server (Algorithm 1)."""

import gc
import random
import tracemalloc

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.objects import ObjectState
from repro.experiments.figures import BENCH_BASE
from repro.geometry import Point, Rect
from repro.obs import EventLog
from repro.simulation import SRBSimulation
from repro.simulation.scenario import scaled_q_len


class MovingWorld:
    """Exact object positions driving a server through its oracle."""

    def __init__(self, n=300, seed=0, **config):
        self.rng = random.Random(seed)
        self.positions = {
            oid: Point(self.rng.random(), self.rng.random()) for oid in range(n)
        }
        self.server = DatabaseServer(
            position_oracle=lambda oid: self.positions[oid],
            config=ServerConfig(grid_m=8, **config),
        )
        self.server.load_objects(self.positions.items())
        self.t = 0.0

    def register_mixed(self, n_range=6, n_knn=6, k=3, order_sensitive=True):
        queries = []
        for i in range(n_range):
            x, y = self.rng.random() * 0.9, self.rng.random() * 0.9
            query = RangeQuery(Rect(x, y, x + 0.07, y + 0.07), query_id=f"r{i}")
            self.server.register_query(query, time=self.t)
            queries.append(query)
        for i in range(n_knn):
            query = KNNQuery(
                Point(self.rng.random(), self.rng.random()), k,
                order_sensitive=order_sensitive, query_id=f"k{i}",
            )
            self.server.register_query(query, time=self.t)
            queries.append(query)
        return queries

    def step(self, moves=1, max_step=0.04):
        """Move random objects; report exactly on safe-region exits."""
        outcomes = []
        for _ in range(moves):
            self.t += 0.01
            oid = self.rng.randrange(len(self.positions))
            p = self.positions[oid]
            new = Point(
                min(max(p.x + self.rng.uniform(-max_step, max_step), 0), 1),
                min(max(p.y + self.rng.uniform(-max_step, max_step), 0), 1),
            )
            self.positions[oid] = new
            if not self.server.safe_region_of(oid).contains_point(new):
                outcomes.append(
                    self.server.handle_location_update(oid, new, self.t)
                )
        return outcomes

    def true_range(self, rect):
        return {o for o, p in self.positions.items() if rect.contains_point(p)}

    def true_knn(self, center, k):
        ranked = sorted(
            self.positions, key=lambda o: center.distance_to(self.positions[o])
        )
        return ranked[:k]

    def assert_exact(self, queries):
        for query in queries:
            if isinstance(query, RangeQuery):
                assert query.results == self.true_range(query.rect), query.query_id
            else:
                truth = self.true_knn(query.center, query.k)
                if query.order_sensitive:
                    assert query.results == truth, query.query_id
                else:
                    assert set(query.results) == set(truth), query.query_id


class TestRegistration:
    def test_initial_results_exact(self):
        world = MovingWorld(seed=1)
        queries = world.register_mixed()
        world.assert_exact(queries)
        world.server.validate()

    def test_load_after_queries_rejected(self):
        world = MovingWorld(n=10, seed=2)
        world.register_mixed(n_range=1, n_knn=0)
        with pytest.raises(RuntimeError):
            world.server.load_objects([("late", Point(0.5, 0.5))])

    def test_duplicate_object_rejected(self):
        world = MovingWorld(n=5, seed=3)
        with pytest.raises(KeyError):
            world.server.load_objects([(0, Point(0.5, 0.5))])

    def test_registration_returns_change_and_probed_regions(self):
        world = MovingWorld(seed=4)
        query = RangeQuery(Rect(0.3, 0.3, 0.7, 0.7))
        outcome = world.server.register_query(query)
        assert outcome.changes[0].new == query.result_snapshot()
        for oid, region in outcome.probed.items():
            assert region.contains_point(world.positions[oid], eps=1e-9)

    def test_deregister(self):
        world = MovingWorld(seed=5)
        queries = world.register_mixed(n_range=2, n_knn=2)
        world.server.deregister_query(queries[0])
        assert world.server.query_count == 3
        world.step(moves=50)
        world.assert_exact(queries[1:])

    def test_unsupported_query_type(self):
        world = MovingWorld(n=5, seed=6)
        with pytest.raises(TypeError):
            world.server.register_query(object())


class TestMonitoringExactness:
    @pytest.mark.parametrize("seed", range(4))
    def test_long_run_exact(self, seed):
        world = MovingWorld(seed=seed)
        queries = world.register_mixed()
        world.step(moves=400)
        world.assert_exact(queries)
        world.server.validate()

    def test_order_insensitive_exact(self):
        world = MovingWorld(seed=11)
        queries = world.register_mixed(order_sensitive=False)
        world.step(moves=300)
        world.assert_exact(queries)

    def test_result_changes_reported(self):
        world = MovingWorld(seed=12)
        queries = world.register_mixed()
        changes = []
        for outcome in world.step(moves=400):
            changes.extend(outcome.changed_queries())
        assert changes  # something moved across a boundary
        for change in changes:
            assert change.old != change.new

    def test_safe_region_always_contains_reported_position(self):
        world = MovingWorld(seed=13)
        world.register_mixed()
        for outcome in world.step(moves=200):
            assert outcome.safe_region is not None
        world.server.validate()


class TestEnhancedModes:
    def test_reachability_reduces_probes_and_stays_exact(self):
        results = {}
        for label, config in (("plain", {}), ("reach", {"max_speed": 5.0})):
            world = MovingWorld(seed=21, **config)
            queries = world.register_mixed()
            world.step(moves=400)
            world.assert_exact(queries)
            results[label] = world.server.stats.probes
        assert results["reach"] < results["plain"]

    def test_weighted_perimeter_stays_exact(self):
        world = MovingWorld(seed=22, steadiness=0.5)
        queries = world.register_mixed()
        world.step(moves=300)
        world.assert_exact(queries)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ServerConfig(steadiness=2.0)
        with pytest.raises(ValueError):
            ServerConfig(max_speed=0.0)
        with pytest.raises(ValueError):
            ServerConfig(probe_timeout=0.0)


class TestDynamicObjects:
    def test_add_object_updates_results(self):
        world = MovingWorld(n=20, seed=31)
        query = RangeQuery(Rect(0.4, 0.4, 0.6, 0.6))
        world.server.register_query(query)
        # Ids must order against the world's int ids (exact ties rank
        # by oid), so the newcomer is an int too.
        new = 1000
        world.positions[new] = Point(0.5, 0.5)
        outcome = world.server.add_object(new, Point(0.5, 0.5), time=1.0)
        assert new in query.results
        assert outcome.safe_region.contains_point(Point(0.5, 0.5), eps=1e-9)
        world.server.validate()

    def test_add_object_into_knn(self):
        world = MovingWorld(n=30, seed=32)
        query = KNNQuery(Point(0.5, 0.5), 3)
        world.server.register_query(query)
        close = 1000
        world.positions[close] = Point(0.5001, 0.5)
        world.server.add_object(close, Point(0.5001, 0.5), time=1.0)
        assert query.results[0] == close
        world.assert_exact([query])

    def test_add_duplicate_rejected(self):
        world = MovingWorld(n=5, seed=33)
        with pytest.raises(KeyError):
            world.server.add_object(0, Point(0.5, 0.5))

    def test_remove_object(self):
        world = MovingWorld(n=10, seed=34)
        world.server.remove_object(3)
        assert 3 not in world.server
        assert world.server.object_count == 9
        world.server.validate()


class TestStats:
    def test_counters_accumulate(self):
        world = MovingWorld(seed=41)
        world.register_mixed()
        world.step(moves=200)
        stats = world.server.stats
        assert stats.queries_registered == 12
        assert stats.location_updates > 0
        assert stats.cpu_seconds > 0
        assert stats.queries_checked >= stats.queries_reevaluated

    def test_grid_filter_effectiveness(self):
        """Checked queries per update stay far below the total W."""
        world = MovingWorld(seed=42)
        world.register_mixed(n_range=10, n_knn=10)
        world.step(moves=300)
        stats = world.server.stats
        if stats.location_updates:
            checked_per_update = stats.queries_checked / stats.location_updates
            assert checked_per_update < 20


def _twins(events=(None, None)):
    """Two identical servers over one shared oracle, plus a report stream."""
    rng = random.Random(11)
    live = {f"o{i}": Point(rng.random(), rng.random()) for i in range(40)}
    servers = []
    for log in events:
        server = DatabaseServer(
            lambda oid: live[oid], ServerConfig(grid_m=5), events=log
        )
        server.load_objects(live.items())
        server.register_query(
            RangeQuery(Rect(0.1, 0.1, 0.6, 0.6), query_id="r0"), time=0.0
        )
        server.register_query(
            KNNQuery(Point(0.5, 0.5), 3, query_id="k0"), time=0.0
        )
        servers.append(server)

    def moves(n=12):
        batch = []
        for oid in rng.sample(sorted(live), n):
            p = live[oid]
            live[oid] = Point(
                min(max(p.x + rng.gauss(0.0, 0.05), 0.0), 1.0),
                min(max(p.y + rng.gauss(0.0, 0.05), 0.0), 1.0),
            )
            batch.append((oid, live[oid]))
        return batch

    return servers, moves


class TestBatchEqualsSequential:
    """``handle_location_updates`` is the per-report contract run in
    ``_order_tick`` order: by destination cell when every id is
    distinct, submission order otherwise.  The bulk loop runs only when
    the tick is cleanly orderable; every gated-out tick must still match
    the same reports sent one by one."""

    @staticmethod
    def _check(batched, single, reports, time, bulk):
        assert batched._order_tick(list(reports), time)[2] is bulk
        out = batched.handle_location_updates(reports, time=time)
        order = range(len(reports))
        if len({oid for oid, _ in reports}) == len(reports):
            cell_of = single.query_index.cell_of
            order = sorted(order, key=lambda i: cell_of(reports[i][1]))
        changes = []
        for i in order:
            oid, p = reports[i]
            changes += single.handle_location_update(oid, p, time).changes
        assert out.changes == changes
        for oid in list(batched._objects):
            assert batched.safe_region_of(oid) == single.safe_region_of(oid)
        assert {q.query_id: q.result_snapshot() for q in batched.queries()} \
            == {q.query_id: q.result_snapshot() for q in single.queries()}
        assert batched.stats.location_updates == single.stats.location_updates
        assert batched.stats.queries_checked == single.stats.queries_checked
        assert batched.stats.probes == single.stats.probes
        assert batched.clock == single.clock
        batched.validate()

    def test_cleanly_orderable_ticks_take_the_bulk_loop(self):
        (batched, single), moves = _twins()
        for tick in range(1, 7):
            self._check(batched, single, moves(), float(tick), bulk=True)

    def test_duplicate_ids(self):
        (batched, single), moves = _twins()
        reports = moves()
        reports += [(oid, Point(0.3, 0.3)) for oid, _ in reports[:3]]
        self._check(batched, single, reports, 1.0, bulk=False)

    def test_non_monotone_timestamp(self):
        (batched, single), moves = _twins()
        self._check(batched, single, moves(), 5.0, bulk=True)
        self._check(batched, single, moves(), 1.0, bulk=False)

    def test_enabled_event_stream(self):
        logs = (EventLog(), EventLog())
        (batched, single), moves = _twins(events=logs)
        for tick in range(1, 4):
            self._check(batched, single, moves(), float(tick), bulk=False)
        assert [(e.kind, e.t, e.cause, e.data) for e in logs[0].events()] \
            == [(e.kind, e.t, e.cause, e.data) for e in logs[1].events()]


def test_validate_rejects_a_stale_held_cell():
    """``validate`` guards the held cell: it must be the cell of the held
    position, and a query-free certificate must cover that full cell."""
    positions = {"a": Point(0.05, 0.05), "b": Point(0.95, 0.95)}
    server = DatabaseServer(positions.__getitem__, ServerConfig(grid_m=4))
    server.bootstrap(positions.items())
    server.validate()
    table = server._objects
    row = table._row("a")
    held = table.cell[row]
    table.cell[row] = server.query_index.cell_of(positions["b"])
    with pytest.raises(AssertionError, match="held cell"):
        server.validate()
    table.cell[row] = held
    server.validate()
    # A query-free certificate over a region smaller than its cell.
    assert server._objects["a"].sr_cert[2] is None
    smaller = Rect(0.0, 0.0, 0.1, 0.1)
    table.region[row] = smaller
    server.object_index.update("a", smaller)
    with pytest.raises(AssertionError, match="certificate"):
        server.validate()


def test_validate_queries_reports_a_quarantine_breach():
    """``validate(queries=True)`` checks what kNN results rest on; the
    plain call checks only the tables and indexes."""
    positions = {"near": Point(0.5, 0.5), "far": Point(0.9, 0.9)}
    server = DatabaseServer(positions.__getitem__, ServerConfig(grid_m=4))
    server.bootstrap(positions.items(), [KNNQuery(Point(0.45, 0.45), 1)])
    server.validate(queries=True)
    # Move the outsider's region (and its held position) into the circle.
    table, inside = server._objects, Rect(0.46, 0.46, 0.47, 0.47)
    row = table._row("far")
    table.region[row] = inside
    table.x[row] = table.y[row] = 0.465
    table.cell[row] = server.query_index.cell_of(Point(0.465, 0.465))
    table.uncertify(row)
    server.object_index.update("far", inside)
    server.validate()
    with pytest.raises(AssertionError, match="outsider inside"):
        server.validate(queries=True)


class TestObjectMemory:
    """The server keeps its per-object state as rows of one table."""

    def test_bootstrap_keeps_rows_not_objects(self):
        """After bootstrap at N = 20,000 (the ``loop_20k`` world: W = 200,
        M = 50, seed 1) no ``ObjectState`` is alive, and, by tracemalloc
        over ``DatabaseServer.bootstrap`` on CPython 3.11, the server
        keeps at most half the 380.1 B per object it kept with an
        ``ObjectState`` dataclass, a held ``Point`` and a certificate
        3-tuple per object and the index's oid -> bucket dict (188.0 B
        as columns), and peaks below 9 MB (10.54 MB then, 7.48 MB as
        columns).  The bound is the parent's figure halved, so 188.0 B
        clears it by ~1 %; both figures are CPython 3.11's, and neither
        has been measured on 3.12, which CI also runs."""
        n = 20_000
        scenario = BENCH_BASE.with_overrides(
            num_objects=n, num_queries=200, q_len=scaled_q_len(n), k_max=5,
            grid_m=50, duration=1.0, sample_interval=0.5, seed=1,
        )
        # Imports and first-use caches.
        SRBSimulation(scenario.with_overrides(num_objects=200))._bootstrap()
        sim = SRBSimulation(scenario)
        positions = (
            (oid, trajectory.position_at(0.0))
            for oid, trajectory in sim.truth.trajectories().items()
        )
        gc.collect()
        tracemalloc.start()
        try:
            granted = sim.server.bootstrap(positions, sim.queries, 0.0)
            del granted
            gc.collect()
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sim.server._objects) == n
        assert not [
            obj for obj in gc.get_objects() if isinstance(obj, ObjectState)
        ]
        assert size / n <= 380.1 / 2
        assert peak <= 9e6

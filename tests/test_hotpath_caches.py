"""The hot-path acceleration layer (docs/PERFORMANCE.md).

Three families of guarantees:

* **Equivalence** — throughout a report stream with query churn, every
  touched cell's cached views equal a brute-force recomputation of its
  bucket, so the caches are a CPU optimisation, never a semantic
  change.
* **Invalidation** — generation stamps advance exactly when a cell's
  relevant-query set changes, so cached views and lazy-recompute
  certificates die the moment a register / deregister / quarantine
  change touches their cell.
* **Elision** — the update fast path really does skip the recompute
  machinery for no-churn traffic (observable through the metrics
  vocabulary), and falls back to the full path the moment a query is
  near.
"""

import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.index.grid import GridIndex
from repro.obs import MetricsRegistry


def _stats_tuple(server):
    """Every ServerStats field except the wall-clock one."""
    st = server.stats
    return (
        st.location_updates, st.probes, st.safe_region_pushes,
        st.queries_registered, st.queries_checked,
        st.queries_reevaluated, st.result_changes,
    )


def _outcome_key(outcome):
    return (
        outcome.safe_region,
        sorted(outcome.probed.items()),
        [(c.query_id, c.old, c.new) for c in outcome.changes],
        outcome.queries_checked,
        outcome.queries_reevaluated,
    )


def _check_cells(grid, live, cells):
    """Each cell's cached views equal a brute-force recomputation.

    The reference rebuilds the bucket from the live queries' quarantine
    areas and derives both views from it uncached: ``frozenset(bucket)``
    and the bucket sorted by ``query_id``.
    """
    for cell in cells:
        rect = grid.cell_rect(cell)
        bucket = [q for q in live if q.quarantine_overlaps(rect)]
        assert grid.queries_in_cell(cell) == frozenset(bucket), cell
        assert grid.relevant_queries(cell) == tuple(
            sorted(bucket, key=lambda q: q.query_id)
        ), cell


def _drive(seed, ticks=200, n=100, movers=15, batch_every=4):
    """Replay a seeded report stream (with mid-run query churn) end to end.

    After every register / deregister / move, checks the cells it
    touched: the movers' old and new cells and every cell whose
    generation advanced.
    """
    rng = random.Random(seed)
    positions = {
        f"o{i}": Point(rng.random(), rng.random()) for i in range(n)
    }
    server = DatabaseServer(
        lambda oid: positions[oid],
        ServerConfig(grid_m=10, max_speed=0.05),
    )
    grid = server.query_index
    all_cells = [(i, j) for i in range(grid.m) for j in range(grid.m)]
    generations = {}

    def check(live, moved=()):
        touched = {grid.cell_of(p) for p in moved}
        for cell in all_cells:
            generation = grid.cell_generation(cell)
            if generations.get(cell, 0) != generation:
                generations[cell] = generation
                touched.add(cell)
        _check_cells(grid, live, sorted(touched))

    server.load_objects(positions.items())
    queries = []
    for i in range(8):
        if i % 2:
            x, y = rng.random() * 0.85, rng.random() * 0.85
            queries.append(RangeQuery(Rect(x, y, x + 0.1, y + 0.1), f"r{i}"))
        else:
            queries.append(
                KNNQuery(Point(rng.random(), rng.random()), 3, query_id=f"k{i}")
            )
        server.register_query(queries[-1], time=0.0)
        check(queries)
    live = list(queries)
    t = 0.0
    for tick in range(ticks):
        t += 1.0
        batch = []
        moved = []
        for oid in rng.sample(sorted(positions), movers):
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.gauss(0, 0.01), 0.0), 1.0),
                min(max(p.y + rng.gauss(0, 0.01), 0.0), 1.0),
            )
            batch.append((oid, positions[oid]))
            moved.append((p, positions[oid]))
        if tick % batch_every == 0:
            server.handle_location_updates(batch, time=t)
            check(live, [p for pair in moved for p in pair])
        else:
            for (oid, new), pair in zip(batch, moved):
                server.handle_location_update(oid, new, t)
                check(live, pair)
        if tick == 80:  # mid-simulation churn: deregistration...
            server.deregister_query(queries[0])
            live.remove(queries[0])
            check(live)
        if tick == 120:  # ...and late registration invalidate live stamps
            late = KNNQuery(Point(0.4, 0.4), 4, query_id="k-late")
            live.append(late)
            server.register_query(late, time=t)
            check(live)
    server.validate()


class TestEquivalence:
    """Cached views always equal their uncached recomputation."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_cached_run_identical_to_uncached(self, seed):
        _drive(seed)

    def test_batch_api_identical_to_sequential(self):
        rng = random.Random(3)
        positions = {
            f"o{i}": Point(rng.random(), rng.random()) for i in range(60)
        }
        reports = []
        for oid in sorted(positions)[:20]:
            p = positions[oid]
            reports.append((oid, Point(p.x * 0.9 + 0.05, p.y * 0.9 + 0.05)))

        def fresh_server(live):
            server = DatabaseServer(
                lambda oid: live[oid], ServerConfig(grid_m=8)
            )
            server.load_objects(live.items())
            server.register_query(
                RangeQuery(Rect(0.2, 0.2, 0.45, 0.45), "r0"), time=0.0
            )
            server.register_query(
                KNNQuery(Point(0.6, 0.6), 3, query_id="k0"), time=0.0
            )
            return server

        live_a = dict(positions)
        batch_server = fresh_server(live_a)
        grid = batch_server.query_index
        order = sorted(
            enumerate(reports), key=lambda item: (grid.cell_of(item[1][1]), item[0])
        )
        live_a.update(reports)
        batch_out = batch_server.handle_location_updates(reports, time=1.0)

        live_b = dict(positions)
        seq_server = fresh_server(live_b)
        live_b.update(reports)
        expected_regions = {}
        expected_changes = []
        for _, (oid, new) in order:
            out = seq_server.handle_location_update(oid, new, time=1.0)
            expected_regions[oid] = out.safe_region
            expected_regions.update(out.probed)
            expected_changes.extend(
                (c.query_id, c.old, c.new) for c in out.changes
            )

        assert batch_out.regions == expected_regions
        assert [
            (c.query_id, c.old, c.new) for c in batch_out.changes
        ] == expected_changes
        assert _stats_tuple(batch_server) == _stats_tuple(seq_server)


class TestGenerationStamps:
    """Grid generations advance exactly with cell-membership changes."""

    def test_insert_remove_update_bump_generations(self):
        grid = GridIndex(4)
        query = RangeQuery(Rect(0.1, 0.1, 0.3, 0.3), "r0")
        touched = (0, 0)
        untouched = (3, 3)
        assert grid.cell_generation(touched) == 0
        grid.insert(query)
        gen_after_insert = grid.cell_generation(touched)
        assert gen_after_insert > 0
        assert grid.cell_generation(untouched) == 0

        # A quarantine change moving the query to other cells bumps both
        # the cells it left and the cells it entered.
        query.rect = Rect(0.8, 0.8, 0.9, 0.9)
        grid.update(query)
        assert grid.cell_generation(touched) > gen_after_insert
        assert grid.cell_generation((3, 3)) > 0

        gen_before_remove = grid.cell_generation((3, 3))
        grid.remove(query)
        assert grid.cell_generation((3, 3)) > gen_before_remove
        assert not grid.has_queries_in_cell((3, 3))

    def test_cached_views_invalidate_on_membership_change(self):
        grid = GridIndex(4)
        a = RangeQuery(Rect(0.05, 0.05, 0.2, 0.2), "a")
        b = RangeQuery(Rect(0.1, 0.1, 0.22, 0.22), "b")
        grid.insert(a)
        cell = (0, 0)
        assert grid.relevant_queries(cell) == (a,)
        assert grid.queries_in_cell(cell) == {a}
        grid.insert(b)
        assert grid.relevant_queries(cell) == (a, b)
        grid.remove(a)
        assert grid.relevant_queries(cell) == (b,)
        assert grid.queries_in_cell(cell) == {b}
        grid.remove(b)
        assert grid.relevant_queries(cell) == ()
        assert grid.queries_in_cell(cell) == frozenset()

    def test_cache_hits_and_misses_are_counted(self):
        registry = MetricsRegistry()
        grid = GridIndex(4, metrics=registry)
        grid.insert(RangeQuery(Rect(0.05, 0.05, 0.2, 0.2), "a"))
        cell = (0, 0)
        grid.relevant_queries(cell)
        grid.relevant_queries(cell)
        grid.queries_in_cell(cell)
        counters = registry.to_dict()["counters"]
        assert counters["grid.cache.misses"] == 1
        assert counters["grid.cache.hits"] == 2

    def test_occupancy_gauges_track_buckets(self):
        registry = MetricsRegistry()
        grid = GridIndex(4, metrics=registry)
        query = RangeQuery(Rect(0.05, 0.05, 0.2, 0.2), "a")
        grid.insert(query)
        gauges = registry.to_dict()["gauges"]
        assert gauges["grid.occupied_cells"] == 1
        assert gauges["grid.cell_occupancy.mean"] == 1.0
        assert gauges["grid.cell_occupancy.peak"] == 1
        grid.remove(query)
        gauges = registry.to_dict()["gauges"]
        assert gauges["grid.occupied_cells"] == 0
        assert gauges["grid.cell_occupancy.peak"] == 1  # watermark


class TestFastPathElision:
    """Certificate lifecycles across query churn and shrinks.

    The single-move cases (which exit each cell kind x move takes, via
    every entry point, both kernel paths) live in
    ``tests/test_update_certificate.py``.
    """

    def _server(self):
        self.registry = MetricsRegistry()
        self.positions = {"quiet": Point(0.05, 0.05), "near": Point(0.8, 0.8)}
        server = DatabaseServer(
            lambda oid: self.positions[oid],
            ServerConfig(grid_m=4),
            metrics=self.registry,
        )
        server.load_objects(self.positions.items())
        return server

    def _fastpath_count(self):
        return self.registry.to_dict()["counters"].get(
            "server.update.fastpath", 0
        )

    def _certified_count(self):
        return self.registry.to_dict()["counters"].get(
            "server.update.certified", 0
        )

    def test_registration_invalidates_live_stamp(self):
        server = self._server()
        server.handle_location_update("quiet", Point(0.06, 0.07), 1.0)
        assert self._fastpath_count() == 1
        # A query lands on the quiet object's cell: its stamp must die.
        # The registration's own reevaluation already absorbed the quiet
        # object into the result and granted it the clipped member
        # region plus a delta certificate, so the next in-region report
        # is certified (no reevaluation can be needed while the member
        # stays strictly inside a region contained in the query rect).
        server.register_query(
            RangeQuery(Rect(0.0, 0.0, 0.2, 0.2), "r0"), time=1.0
        )
        assert server.safe_region_of("quiet") != \
            server.query_index.cell_rect_of_point(Point(0.08, 0.08))
        out = server.handle_location_update("quiet", Point(0.08, 0.08), 2.0)
        assert self._fastpath_count() == 2  # delta-certified, not stamped
        assert self._certified_count() == 1
        assert out.queries_checked == 0
        # Leaving the granted region ends the certificate: the full path
        # runs and catches the membership change.
        out = server.handle_location_update("quiet", Point(0.22, 0.08), 3.0)
        assert self._fastpath_count() == 2  # unchanged: full path ran
        assert out.queries_checked >= 1
        assert any(c.query_id == "r0" for c in out.changes)
        server.validate()

    def test_deregistration_restores_elision_after_one_full_pass(self):
        server = self._server()
        query = RangeQuery(Rect(0.0, 0.0, 0.2, 0.2), "r0")
        server.register_query(query, time=0.0)
        server.deregister_query(query)
        # First update after deregistration recomputes (stamp was never
        # set while the query lived there) and re-certifies the cell...
        server.handle_location_update("quiet", Point(0.06, 0.07), 1.0)
        assert self._fastpath_count() == 0
        # ...so the next one is elided again.
        server.handle_location_update("quiet", Point(0.07, 0.06), 2.0)
        assert self._fastpath_count() == 1
        server.validate()

    def test_reachability_shrink_clears_certificate(self):
        registry = MetricsRegistry()
        positions = {"a": Point(0.55, 0.5), "b": Point(0.9, 0.9)}
        server = DatabaseServer(
            lambda oid: positions[oid],
            ServerConfig(grid_m=2, max_speed=0.05),
            metrics=registry,
        )
        server.load_objects(positions.items())
        server.register_query(
            KNNQuery(Point(0.1, 0.1), 1, query_id="k0"), time=0.0
        )
        # A query-free certificate (clearances None) vouches for the full
        # cell rectangle: any object whose region was tightened below its
        # full cell must hold a covered-cell certificate or none.
        tightened = 0
        for oid, st in server._objects.items():
            cell = server.query_index.cell_rect_of_point(st.p_lst)
            if st.safe_region != cell:
                tightened += 1
                assert st.sr_cert is None or st.sr_cert[2] is not None, oid
        assert tightened
        server.validate()

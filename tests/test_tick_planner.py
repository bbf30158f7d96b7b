"""Unit tests for the tick-wide kernel planner (repro.kernels.planner).

The planner is the gather → dispatch → scatter pipeline behind
``DatabaseServer.handle_location_updates`` (docs/PERFORMANCE.md).  These
tests pin its contract pieces in isolation: the ``kernels.planner.*``
counters, the take-time validation that keeps planned and unplanned
executions bit-identical, the bulk-path gating (an enabled event stream
must disable planning entirely), and the public ``planned_tick``
context manager the sharded backend drives per-op streams through.
"""

from __future__ import annotations

import random

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.batch import batch_range_safe_region, quadrant_extents
from repro.geometry import Point, Rect
from repro.kernels import Kernels, TickPlanner
from repro.obs import EventLog, MetricsRegistry


class _StubGrid:
    """Just enough grid for ``TickPlan.take_affected`` validation."""

    def __init__(self, generations):
        self._generations = dict(generations)

    def cell_generation(self, cell):
        return self._generations.get(cell, 0)


def _plan_one(planner, oid, position, previous, queries,
              cells=(3,), generations=(0,)):
    planner.begin()
    planner.add_affected(
        oid, position, previous, tuple(queries), cells, generations,
    )
    return planner.finish()


class TestPlannerCounters:
    def test_counts_plans_rows_and_dispatches(self):
        registry = MetricsRegistry()
        planner = TickPlanner(Kernels("numpy"), metrics=registry)
        q = RangeQuery(Rect(0.2, 0.2, 0.6, 0.6), query_id="r0")
        _plan_one(planner, "a", Point(0.3, 0.3), Point(0.1, 0.1), [q])
        counters = registry.to_dict()["counters"]
        assert counters["kernels.planner.plans"] == 1
        assert counters["kernels.planner.rows_gathered"] == 1
        assert counters["kernels.planner.dispatches"] == 1

    def test_region_work_is_a_second_dispatch(self):
        registry = MetricsRegistry()
        planner = TickPlanner(Kernels("numpy"), metrics=registry)
        q = RangeQuery(Rect(0.5, 0.5, 0.7, 0.7), query_id="r0")
        p = Point(0.2, 0.2)
        cell = Rect(0.0, 0.0, 1.0, 1.0)
        planner.begin()
        planner.add_affected("a", p, Point(0.1, 0.1), (q,), (0,), (0,))
        cols = planner.obstacle_columns(0, 0, [q])
        planner.add_region(
            "a", p, 0, cell, quadrant_extents(p, cell), cols
        )
        planner.finish()
        counters = registry.to_dict()["counters"]
        assert counters["kernels.planner.dispatches"] == 2
        # 1 affected row + 1 obstacle rect row (the four quadrant corner
        # candidates are derived in-kernel, not gathered as rows).
        assert counters["kernels.planner.rows_gathered"] == 2

    def test_empty_deltas_count_as_skipped_rows(self):
        registry = MetricsRegistry()
        planner = TickPlanner(Kernels("numpy"), metrics=registry)
        q_hit = RangeQuery(Rect(0.2, 0.2, 0.6, 0.6), query_id="rin")
        q_miss = RangeQuery(Rect(0.8, 0.8, 0.9, 0.9), query_id="rout")
        _plan_one(
            planner, "a", Point(0.3, 0.3), Point(0.1, 0.1),
            [q_hit, q_miss],
        )
        counters = registry.to_dict()["counters"]
        # ``q_miss`` contains neither endpoint: its verdict row is an
        # empty delta the consumer never revisits.
        assert counters["kernels.delta.skipped_rows"] == 1


class TestTakeValidation:
    def test_verdicts_match_scalar_is_affected_by(self):
        planner = TickPlanner(Kernels("numpy"))
        q_in = RangeQuery(Rect(0.2, 0.2, 0.6, 0.6), query_id="rin")
        q_out = RangeQuery(Rect(0.8, 0.8, 0.9, 0.9), query_id="rout")
        pos, prev = Point(0.3, 0.3), Point(0.1, 0.1)
        plan = _plan_one(planner, "a", pos, prev, [q_in, q_out])
        taken = plan.take_affected("a", pos, prev, _StubGrid({3: 0}))
        assert taken is not None
        ordered, hits, kverdicts = taken
        assert ordered == (q_in, q_out)
        assert kverdicts == []
        # Only the affected query appears in the delta; its payload is
        # the new-position containment ``reevaluate_range`` consumes.
        assert q_in.is_affected_by(pos, prev)
        assert not q_out.is_affected_by(pos, prev)
        assert hits == [(q_in, q_in.rect.contains_point(pos))]

    def test_knn_gates_match_scalar_quarantine(self):
        planner = TickPlanner(Kernels("numpy"))
        q_near = KNNQuery(Point(0.3, 0.3), 2, query_id="knear")
        q_near.radius = 0.2
        q_far = KNNQuery(Point(0.9, 0.9), 2, query_id="kfar")
        q_far.radius = 0.05
        pos, prev = Point(0.35, 0.3), Point(0.1, 0.1)
        plan = _plan_one(planner, "a", pos, prev, [q_far, q_near])
        taken = plan.take_affected("a", pos, prev, _StubGrid({3: 0}))
        assert taken is not None
        ordered, hits, kverdicts = taken
        assert hits == []
        # Every plain kNN candidate gets a gate row (candidate order),
        # carrying the radius it was planned against.
        assert [(q, hit, rad) for q, hit, _, rad in kverdicts] == [
            (q_far, q_far.is_affected_by(pos, prev), q_far.radius),
            (q_near, q_near.is_affected_by(pos, prev), q_near.radius),
        ]
        for q, _, (in_new, in_old), _ in kverdicts:
            assert in_new == q.quarantine_contains(pos)
            assert in_old == q.quarantine_contains(prev)

    def test_entries_pop_once(self):
        planner = TickPlanner(Kernels("numpy"))
        q = RangeQuery(Rect(0.2, 0.2, 0.6, 0.6), query_id="r0")
        pos, prev = Point(0.3, 0.3), Point(0.1, 0.1)
        plan = _plan_one(planner, "a", pos, prev, [q])
        grid = _StubGrid({3: 0})
        assert plan.take_affected("a", pos, prev, grid) is not None
        assert plan.take_affected("a", pos, prev, grid) is None

    def test_position_identity_not_equality(self):
        planner = TickPlanner(Kernels("numpy"))
        q = RangeQuery(Rect(0.2, 0.2, 0.6, 0.6), query_id="r0")
        pos, prev = Point(0.3, 0.3), Point(0.1, 0.1)
        plan = _plan_one(planner, "a", pos, prev, [q])
        # An equal but distinct Point means an interleaved op rewrote
        # the state — the entry must be rejected, not resold.
        assert plan.take_affected(
            "a", Point(0.3, 0.3), prev, _StubGrid({3: 0})
        ) is None

    def test_stale_generation_rejects(self):
        planner = TickPlanner(Kernels("numpy"))
        q = RangeQuery(Rect(0.2, 0.2, 0.6, 0.6), query_id="r0")
        pos, prev = Point(0.3, 0.3), Point(0.1, 0.1)
        plan = _plan_one(
            planner, "a", pos, prev, [q], cells=(3,), generations=(0,)
        )
        # A quarantine move bumped the cell's generation after planning.
        assert plan.take_affected("a", pos, prev, _StubGrid({3: 1})) is None

    def test_region_matches_unplanned_staircase(self):
        planner = TickPlanner(Kernels("numpy"))
        p = Point(0.41, 0.37)
        cell = Rect(0.25, 0.25, 0.5, 0.5)
        obstacles = [
            Rect(0.30, 0.30, 0.35, 0.35),
            Rect(0.44, 0.40, 0.48, 0.49),
        ]
        queries = [
            RangeQuery(r, query_id=f"r{i}")
            for i, r in enumerate(obstacles)
        ]
        planner.begin()
        cols = planner.obstacle_columns(7, 0, queries)
        planner.add_region("a", p, 7, cell, quadrant_extents(p, cell), cols)
        plan = planner.finish()
        taken = plan.take_range_region("a", p, 7)
        assert taken is not None
        n_obstacles, region = taken
        assert n_obstacles == len(obstacles)
        assert region == batch_range_safe_region(p, cell, obstacles, None)
        # Wrong cell id (a mid-tick move) rejects; entries pop once.
        assert plan.take_range_region("a", p, 8) is None
        assert plan.take_range_region("a", p, 7) is None

    def test_contained_obstacles_are_dropped_in_kernel(self):
        # The resident obstacle columns include every eligible rect of
        # the cell; the containment exclusion moves into the dispatch.
        planner = TickPlanner(Kernels("numpy"))
        p = Point(0.41, 0.37)
        cell = Rect(0.25, 0.25, 0.5, 0.5)
        around_p = Rect(0.40, 0.30, 0.45, 0.40)  # contains p
        blocker = Rect(0.30, 0.30, 0.35, 0.35)
        queries = [
            RangeQuery(around_p, query_id="rc"),
            RangeQuery(blocker, query_id="rb"),
        ]
        planner.begin()
        cols = planner.obstacle_columns(7, 0, queries)
        assert cols.n == 2
        planner.add_region("a", p, 7, cell, quadrant_extents(p, cell), cols)
        plan = planner.finish()
        n_obstacles, region = plan.take_range_region("a", p, 7)
        assert n_obstacles == 1
        assert region == batch_range_safe_region(p, cell, [blocker], None)

    def test_obstacle_columns_cache_by_generation(self):
        planner = TickPlanner(Kernels("numpy"))
        q = RangeQuery(Rect(0.3, 0.3, 0.4, 0.4), query_id="r0")
        cols = planner.obstacle_columns(5, 3, [q])
        assert planner.obstacle_columns(5, 3, [q]) is cols
        q2 = RangeQuery(Rect(0.6, 0.6, 0.7, 0.7), query_id="r1")
        fresh = planner.obstacle_columns(5, 4, [q, q2])
        assert fresh is not cols and fresh.n == 2


def _world(events=None, metrics=None):
    rng = random.Random(11)
    live = {
        f"o{i}": Point(rng.random(), rng.random()) for i in range(40)
    }
    server = DatabaseServer(
        lambda oid: live[oid], ServerConfig(grid_m=5),
        metrics=metrics, events=events,
    )
    server.load_objects(live.items())
    server.register_query(
        RangeQuery(Rect(0.1, 0.1, 0.6, 0.6), query_id="r0"), time=0.0
    )
    server.register_query(
        KNNQuery(Point(0.5, 0.5), 3, query_id="k0"), time=0.0
    )
    return live, server, rng


def _batches(live, rng, ticks=6, movers=12):
    out = []
    for _ in range(ticks):
        batch = []
        for oid in rng.sample(sorted(live), movers):
            p = live[oid]
            q = Point(
                min(max(p.x + rng.gauss(0.0, 0.05), 0.0), 1.0),
                min(max(p.y + rng.gauss(0.0, 0.05), 0.0), 1.0),
            )
            live[oid] = q
            batch.append((oid, q))
        out.append(batch)
    return out


class TestBulkGating:
    def test_batches_plan_when_cleanly_orderable(self):
        registry = MetricsRegistry()
        live, server, rng = _world(metrics=registry)
        clock = 0.0
        for batch in _batches(live, rng):
            clock += 1.0
            server.handle_location_updates(batch, time=clock)
        counters = registry.to_dict()["counters"]
        assert counters["kernels.planner.plans"] > 0
        assert counters["kernels.planner.rows_gathered"] > 0

    def test_enabled_event_stream_disables_planning(self):
        # The event stream documents per-report causality; the bulk
        # pipeline elides per-report scaffolding, so it must stand down.
        registry = MetricsRegistry()
        events = EventLog()
        live, server, rng = _world(events=events, metrics=registry)
        clock = 0.0
        for batch in _batches(live, rng):
            clock += 1.0
            server.handle_location_updates(batch, time=clock)
        counters = registry.to_dict()["counters"]
        assert counters.get("kernels.planner.plans", 0) == 0


class TestPlannedTickContext:
    def test_installs_and_clears_the_plan(self):
        live, server, rng = _world()
        # Reports into a query-holding cell always have plannable work.
        # (This pinned a one-report tick, which now installs no plan —
        # a plan of one report batches nothing, and the sharded closed
        # loop ran thousands of them; see the test below.)
        first, second = sorted(live)[:2]
        reports = [(first, Point(0.3, 0.3)), (second, Point(0.35, 0.3))]
        with server.planned_tick(reports, time=1.0):
            assert server._tick_plan is not None
        assert server._tick_plan is None

    def test_one_report_tick_installs_no_plan(self):
        registry = MetricsRegistry()
        live, server, rng = _world(metrics=registry)
        oid = sorted(live)[0]
        with server.planned_tick([(oid, Point(0.3, 0.3))], time=1.0):
            assert server._tick_plan is None
            server.handle_location_update(oid, Point(0.3, 0.3), 1.0)
        counters = registry.to_dict()["counters"]
        assert counters.get("kernels.planner.plans", 0) == 0

    def test_duplicate_ids_skip_planning(self):
        live, server, rng = _world()
        oid = sorted(live)[0]
        reports = [(oid, Point(0.3, 0.3)), (oid, Point(0.4, 0.4))]
        with server.planned_tick(reports, time=1.0):
            assert server._tick_plan is None

    def test_non_monotone_time_skips_planning(self):
        live, server, rng = _world()
        reports = _batches(live, rng, ticks=1)[0]
        server.handle_location_updates([], time=5.0)
        server._clock = 5.0
        with server.planned_tick(reports, time=1.0):
            assert server._tick_plan is None

    def test_per_op_replay_matches_unplanned(self):
        """Driving reports one by one under ``planned_tick`` is
        bit-identical to the plain sequential path — the guarantee the
        sharded backend's op-stream batching rests on."""
        live_a, server_a, _ = _world()
        live_b, server_b, _ = _world()
        # One shared update stream, generated apart from both oracles so
        # each server sees positions advance tick by tick.
        plan_live = dict(live_a)
        batches = _batches(plan_live, random.Random(99))
        clock = 0.0
        for batch in batches:
            clock += 1.0
            live_a.update(batch)
            live_b.update(batch)
            outcomes_a = []
            with server_a.planned_tick(batch, time=clock):
                for oid, p in batch:
                    outcomes_a.append(
                        server_a.handle_location_update(oid, p, clock)
                    )
            outcomes_b = [
                server_b.handle_location_update(oid, p, clock)
                for oid, p in batch
            ]
            for oa, ob in zip(outcomes_a, outcomes_b):
                assert oa.safe_region == ob.safe_region
                assert oa.probed == ob.probed
                assert [
                    (c.query_id, c.old, c.new) for c in oa.changes
                ] == [(c.query_id, c.old, c.new) for c in ob.changes]
        snap_a = {
            q.query_id: q.result_snapshot() for q in server_a.queries()
        }
        snap_b = {
            q.query_id: q.result_snapshot() for q in server_b.queries()
        }
        assert snap_a == snap_b
        assert (
            server_a.stats.queries_checked
            == server_b.stats.queries_checked
        )

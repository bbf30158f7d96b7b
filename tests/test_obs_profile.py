"""Tick-phase profiler: self-time accounting, hotspots, merge, zero overhead.

Three layers under test:

* :class:`repro.obs.TickProfiler` fed through the timing seam
  (``Tracer.phase``) — the self-time invariant (phase times sum to the
  tick wall time by construction), the site table, the tick
  ownership token, the ``max_ticks`` sampling budget, and the export
  shapes (``to_dict`` / ``phase_budget`` / ``folded_lines``).
* The server integration — ``DatabaseServer.profile_start`` /
  ``profile_snapshot`` and the sharded merge path
  (``ShardedServer.profile_snapshot``), including the reconciliation of
  merged phase budgets against the coordinator's summed ``stats``.
* The zero-overhead contract — a disabled profiler *and* a disabled
  tracer together perform **zero** ``perf_counter`` calls on a fully
  certified fast-path tick (the regression this file pins: instrument
  hooks must compile down to one attribute check on the hot path).
"""

import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.obs import (
    NULL_PROFILER,
    PHASES,
    MetricsRegistry,
    NullProfiler,
    TickProfiler,
    Tracer,
    empty_profile,
    folded_lines,
    merge_profiles,
    occupancy_summary,
    phase_budget,
    render_profile,
)
from repro.sharding import ShardedServer


# ---------------------------------------------------------------------------
# TickProfiler accounting


def _seam():
    """A tracer feeding a fresh profiler: the server's timing seam."""
    profiler = TickProfiler()
    tracer = Tracer()
    tracer.attach_profiler(profiler)
    return tracer, profiler


class TestTickAccounting:
    def test_phase_self_times_sum_to_tick_wall(self):
        tracer, profiler = _seam()
        assert profiler.tick_begin()
        tracer.phase(
            "ingest", tracer.phase, "reevaluate", sum, range(500)
        )
        tracer.phase("location_manager", sum, range(500))
        profiler.tick_end(reports=3)
        assert profiler.ticks == 1
        assert profiler.reports == 3
        assert sum(profiler.phase_wall.values()) == pytest.approx(
            profiler.wall_seconds, rel=1e-9
        )
        assert set(profiler.phase_wall) == {
            "tick", "tick;ingest", "tick;ingest;reevaluate",
            "tick;report.scatter",
        }

    def test_child_time_is_excluded_from_parent(self):
        tracer, profiler = _seam()
        profiler.tick_begin()
        # All of the work belongs to the child.
        tracer.phase(
            "location_manager", tracer.phase, "safe_region", sum,
            range(20000),
        )
        profiler.tick_end()
        assert (
            profiler.phase_wall["tick;report.scatter;safe_region"]
            > profiler.phase_wall["tick;report.scatter"]
        )

    def test_tick_end_folds_unclosed_phases(self):
        # Exception safety: a phase an exception unwound out of is still
        # billed, and the invariant still holds.
        tracer, profiler = _seam()
        profiler.tick_begin()

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            tracer.phase("ingest", boom)
        profiler.tick_end()
        assert set(profiler.phase_wall) == {"tick", "tick;ingest"}
        assert sum(profiler.phase_wall.values()) == pytest.approx(
            profiler.wall_seconds, rel=1e-9
        )
        # Fully folded: the next tick starts from empty slots.
        assert not profiler.tick_open
        assert not any(profiler.tick_phases.values())

    def test_ownership_token_prevents_double_counting(self):
        # An outer wrapper holds the tick; an inner auto-root must not
        # open (or close) a second one.
        profiler = TickProfiler()
        assert profiler.tick_begin() is True
        assert profiler.tick_begin() is False  # inner call: not the owner
        profiler.tick_end()
        assert profiler.ticks == 1

    def test_hooks_outside_a_tick_record_nothing(self):
        # Bootstrap work (loads, query registration) happens outside any
        # tick; it must not pollute the budget.
        tracer, profiler = _seam()
        assert tracer.phase("ingest", sum, range(10)) == 45
        profiler.tick_end()
        assert profiler.ticks == 0
        assert profiler.phase_wall == {}
        assert not any(profiler.tick_phases.values())

    def test_max_ticks_freezes_the_sampling_session(self):
        profiler = TickProfiler(max_ticks=2)
        for _ in range(2):
            assert profiler.tick_begin()
            profiler.tick_end()
        assert profiler.enabled is False
        assert profiler.tick_begin() is False  # capture is frozen
        assert profiler.ticks == 2

    def test_to_dict_ranks_hotspots(self):
        profiler = TickProfiler()
        profiler.note_query("q-slow", 0.5, reevals=3)
        profiler.note_query("q-fast", 0.1)
        profiler.note_report("o1", (3, 4), rows=10, affected=2)
        profiler.note_report("o1", (3, 4), rows=0, affected=0)
        profiler.note_report("o2", (0, 0), rows=25, affected=2)
        summary = profiler.to_dict()
        queries = summary["hotspots"]["queries"]
        assert [row["id"] for row in queries] == ["q-slow", "q-fast"]
        assert queries[0]["reevaluations"] == 3
        cells = summary["hotspots"]["cells"]
        assert [row["id"] for row in cells] == ["0,0", "3,4"]  # by rows
        assert cells[1] == {"id": "3,4", "rows": 10, "reports": 2}
        # Reports weigh by the queries they affected (at least one).
        assert summary["hotspots"]["objects"] == [
            {"id": "o1", "reports": 3}, {"id": "o2", "reports": 2}
        ]

    def test_null_profiler_is_inert(self):
        assert NULL_PROFILER.enabled is False
        assert isinstance(NULL_PROFILER, NullProfiler)
        assert NULL_PROFILER.tick_begin() is False
        # Every stub is callable and harmless even without the gate.
        NULL_PROFILER.note_query("q", 1.0)
        NULL_PROFILER.note_report("o", (0, 0), rows=1, affected=1)
        NULL_PROFILER.tick_end(5)
        assert NULL_PROFILER.to_dict() == empty_profile()


# ---------------------------------------------------------------------------
# Summary shaping: budget, folded stacks, occupancy, merge


class TestSummaries:
    def test_phase_budget_shares_sum_to_one(self):
        summary = {
            "phases": {"tick": 1.0, "tick;ingest": 2.0, "tick;plan": 1.0}
        }
        rows = phase_budget(summary)
        assert [label for label, _, _ in rows] == [
            "ingest", "orchestration", "plan"
        ]
        assert sum(share for _, _, share in rows) == pytest.approx(1.0)
        assert rows[0][2] == pytest.approx(0.5)

    def test_folded_lines_are_integer_microseconds(self):
        summary = {"phases": {"tick;ingest": 0.0012349, "tick": 0.5}}
        assert folded_lines(summary) == [
            "tick 500000",
            "tick;ingest 1235",
        ]

    def test_occupancy_summary_matches_imbalance_gauge_formula(self):
        # 3 cells, 6 objects, fullest holds 4: imbalance 4 * 3 / 6 = 2.
        skew = occupancy_summary([4, 1, 1, 0])
        assert skew["cells"] == 3  # empty cells are not resident
        assert skew["objects"] == 6
        assert skew["imbalance"] == pytest.approx(2.0)
        assert skew["histogram"] == {"le_1": 2, "le_4": 1}

    def test_occupancy_summary_empty(self):
        skew = occupancy_summary([])
        assert skew["cells"] == 0 and skew["imbalance"] == 0.0

    def test_merge_sums_additive_fields_and_reranks_hotspots(self):
        a = empty_profile()
        a.update(ticks=2, reports=10, wall_seconds=1.0, cpu_seconds=0.8)
        a["phases"] = {"tick": 0.4, "tick;ingest": 0.6}
        a["hotspots"]["queries"] = [
            {"id": "q1", "seconds": 0.2, "reevaluations": 4}
        ]
        a["occupancy"] = occupancy_summary([3, 1])
        b = empty_profile()
        b.update(ticks=1, reports=5, wall_seconds=0.5, cpu_seconds=0.4)
        b["phases"] = {"tick;ingest": 0.1, "tick;index.maintenance": 0.4}
        b["hotspots"]["queries"] = [
            {"id": "q2", "seconds": 0.3, "reevaluations": 1},
            {"id": "q1", "seconds": 0.2, "reevaluations": 2},
        ]
        b["occupancy"] = occupancy_summary([2, 2])
        merged = merge_profiles([a, None, {}, b])  # falsy entries skipped
        assert merged["ticks"] == 3
        assert merged["reports"] == 15
        assert merged["wall_seconds"] == pytest.approx(1.5)
        assert merged["phases"]["tick;ingest"] == pytest.approx(0.7)
        queries = merged["hotspots"]["queries"]
        # q1 merged across shards (0.4s) outranks q2 (0.3s).
        assert queries[0] == {
            "id": "q1", "seconds": pytest.approx(0.4), "reevaluations": 6
        }
        # Cells partition across shards: totals sum, max is the max.
        assert merged["occupancy"]["objects"] == 8
        assert merged["occupancy"]["cells"] == 4
        assert merged["occupancy"]["max"] == 3
        assert merged["occupancy"]["imbalance"] == pytest.approx(1.5)

    def test_render_profile_empty_summary_is_safe(self):
        text = render_profile(empty_profile())
        assert "0 ticks" in text
        assert "phase budget" in text


# ---------------------------------------------------------------------------
# Server integration


def _world(seed, n=120):
    rng = random.Random(seed)
    return {f"o{i}": Point(rng.random(), rng.random()) for i in range(n)}


def _stream(seed, world, ticks=15, movers=30):
    positions = dict(world)
    rng = random.Random(seed + 1)
    stream = []
    for tick in range(1, ticks + 1):
        batch = []
        for oid in rng.sample(sorted(positions), movers):
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.gauss(0, 0.01), 0.0), 1.0),
                min(max(p.y + rng.gauss(0, 0.01), 0.0), 1.0),
            )
            batch.append((oid, positions[oid]))
        stream.append((float(tick), batch))
    return stream


class _Oracle:
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
    for i in range(8):
        if i % 2:
            x, y = rng.random() * 0.85, rng.random() * 0.85
            server.register_query(
                RangeQuery(Rect(x, y, x + 0.1, y + 0.1), query_id=f"r{i}"),
                0.0,
            )
        else:
            server.register_query(
                KNNQuery(Point(rng.random(), rng.random()), 3,
                         query_id=f"k{i}"),
                0.0,
            )
    total = 0
    for t, batch in stream:
        oracle.apply(batch)
        server.handle_location_updates(batch, t)
        total += len(batch)
    return total


class TestServerIntegration:
    def test_snapshot_phases_cover_the_tick_wall(self):
        world = _world(31)
        oracle = _Oracle(world)
        server = DatabaseServer(oracle, ServerConfig(grid_m=12))
        server.profile_start()
        _drive(server, oracle, world, _stream(31, world), 31)
        summary = server.profile_snapshot()
        assert summary["ticks"] == 15
        # Acceptance criterion: attributed phase time sums to the tick
        # wall within 10% — by construction it is exact up to float
        # error, so pin much tighter.
        assert sum(summary["phases"].values()) == pytest.approx(
            summary["wall_seconds"], rel=1e-6
        )
        # The phase vocabulary showed up (docs/OBSERVABILITY.md).
        assert "tick" in summary["phases"]
        assert "tick;ingest;reevaluate" in summary["phases"]
        assert "tick;report.scatter;safe_region" in summary["phases"]
        # Occupancy rides on server snapshots.
        assert summary["occupancy"]["objects"] == len(world)
        # Hotspots saw real work.
        assert summary["hotspots"]["queries"]
        assert summary["hotspots"]["objects"]

    def test_profile_stop_detaches_and_freezes(self):
        world = _world(32, n=40)
        oracle = _Oracle(world)
        server = DatabaseServer(oracle, ServerConfig(grid_m=8))
        server.profile_start()
        _drive(server, oracle, world, _stream(32, world, ticks=3,
                                              movers=10), 32)
        ticks_before = server.profile_snapshot()["ticks"]
        server.profile_stop()
        server.handle_location_updates(
            [("o0", Point(0.5, 0.5))], time=100.0
        )
        assert server.profiler is NULL_PROFILER
        assert server.profile_snapshot()["ticks"] == 0  # detached

        assert ticks_before == 3

    def test_max_ticks_scopes_the_capture(self):
        world = _world(33, n=40)
        oracle = _Oracle(world)
        server = DatabaseServer(oracle, ServerConfig(grid_m=8))
        server.profile_start(max_ticks=2)
        _drive(server, oracle, world, _stream(33, world, ticks=6,
                                              movers=10), 33)
        assert server.profile_snapshot()["ticks"] == 2


class TestSiteTable:
    def test_one_slow_path_report_feeds_every_listed_site(self):
        """The site table pins the timing seam: with metrics and a
        profiler attached, one slow-path report produces exactly the
        span histogram of every listed site (nested along the parent
        links under ``server.update``) and every listed profile path."""
        registry = MetricsRegistry()
        world = {0: Point(0.1, 0.1), 1: Point(0.9, 0.9)}
        server = DatabaseServer(
            world.__getitem__, ServerConfig(grid_m=4), metrics=registry
        )
        server.load_objects(world.items())
        server.register_query(
            RangeQuery(Rect(0.4, 0.4, 0.6, 0.6), query_id="r"), 0.0
        )
        server.profile_start()
        world[0] = Point(0.5, 0.5)  # into the range: a reevaluation
        outcome = server.handle_location_update(0, world[0], 1.0)
        assert outcome.changes and outcome.safe_region is not None

        def dotted(name):
            parent = PHASES[name][1]
            return f"{dotted(parent)}.{name}" if parent else name

        spans = {
            name for name in registry.to_dict()["histograms"]
            if name.startswith("span.server.update.")
        }
        assert spans == {"span.server.update.seconds"} | {
            f"span.server.update.{dotted(name)}.seconds" for name in PHASES
        }
        phases = server.profile_snapshot()["phases"]
        assert set(phases) == {"tick"} | {
            path for path, _ in PHASES.values() if path is not None
        }
        assert sum(phases.values()) == pytest.approx(
            server.profiler.wall_seconds, rel=1e-9
        )


class TestShardedReconciliation:
    """Satellite pin: the merged profile and the coordinator's summed
    ``stats`` must tell one story — no tick double-counted between the
    ``_busy`` cache and live ``info`` calls, no report lost in the
    merge."""

    def test_merged_profile_reconciles_with_summed_stats(self):
        world = _world(41)
        oracle = _Oracle(world)
        server = ShardedServer(
            oracle, ServerConfig(grid_m=12), n_shards=2
        )
        server.profile_start()
        total_reports = _drive(server, oracle, world, _stream(41, world), 41)
        merged = server.profile_snapshot()
        stats = server.stats
        busy_total = sum(server.shard_busy_seconds())

        # Every routed update was profiled exactly once: the coordinator
        # splits batches across shards, each shard ticks once per batch
        # op, and reports sum back to the coordinator's counter.
        assert merged["reports"] == stats.location_updates == total_reports
        # Per-shard sections ride on the merged summary and their
        # additive fields reconcile exactly with the merged totals.
        shards = merged["shards"]
        assert set(shards) == {"shard0", "shard1"}
        assert sum(s["wall_seconds"] for s in shards.values()) == (
            pytest.approx(merged["wall_seconds"], rel=1e-9)
        )
        assert sum(s["reports"] for s in shards.values()) == (
            merged["reports"]
        )
        # The merged phase budget covers the merged wall.
        assert sum(merged["phases"].values()) == pytest.approx(
            merged["wall_seconds"], rel=1e-6
        )
        # Profiled tick CPU is a subset of op busy time (ops also cover
        # partial extraction and registration), so the double-counting
        # failure mode — a tick billed to both a live ``info`` call and
        # the ``_busy`` cache — would push this past the cap.
        assert merged["cpu_seconds"] <= busy_total + 0.05
        # The tracer's summed root-span CPU and the profiler's tick wall
        # both measure the same update work from different clocks; gross
        # double-counting on either side breaks the envelope.
        assert 0.0 < stats.cpu_seconds <= merged["wall_seconds"] * 2 + 0.1

    def test_dead_shard_summary_is_frozen_into_the_merge(self):
        world = _world(42)
        oracle = _Oracle(world)
        server = ShardedServer(
            oracle, ServerConfig(grid_m=12), n_shards=2
        )
        server.profile_start()
        stream = _stream(42, world)
        _drive(server, oracle, world, stream[:10], 42)
        before = server.profile_snapshot()
        server.kill_shard(1, time=11.0)
        for t, batch in stream[10:]:
            oracle.apply(batch)
            server.handle_location_updates(batch, t)
        merged = server.profile_snapshot()
        # The dead shard's capture survives at its frozen value while
        # the surviving shard keeps accruing.
        assert merged["shards"]["shard1"]["ticks"] == (
            before["shards"]["shard1"]["ticks"]
        )
        assert merged["shards"]["shard0"]["ticks"] > (
            before["shards"]["shard0"]["ticks"]
        )

    def test_worker_mode_ships_summaries_over_the_pipe(self):
        world = _world(43, n=60)
        oracle = _Oracle(world)
        stream = _stream(43, world, ticks=8, movers=15)
        with ShardedServer(
            oracle, ServerConfig(grid_m=12), n_shards=2, n_workers=2
        ) as server:
            server.profile_start()
            total = _drive(server, oracle, world, stream, 43)
            merged = server.profile_snapshot()
        assert merged["reports"] == total
        assert set(merged["shards"]) == {"shard0", "shard1"}
        assert sum(merged["phases"].values()) == pytest.approx(
            merged["wall_seconds"], rel=1e-6
        )


# ---------------------------------------------------------------------------
# Zero-overhead contract


class TestZeroOverhead:
    def test_disabled_instruments_make_no_perf_counter_calls(
        self, monkeypatch
    ):
        """A fully certified fast-path tick with the default (disabled)
        tracer, metrics, and profiler performs zero ``perf_counter``
        calls — the regression gate for hot-path instrumentation."""
        import repro.core.server as server_module
        import repro.obs.profile as profile_module
        import repro.obs.trace as trace_module

        rng = random.Random(5)
        live = {
            f"o{i}": Point(rng.random(), rng.random()) for i in range(40)
        }
        server = DatabaseServer(
            lambda oid: live[oid], ServerConfig(grid_m=8)
        )
        server.load_objects(live.items())

        def batch_of(step):
            moves = []
            for oid, p in sorted(live.items()):
                q = Point(
                    min(max(p.x + step, 0.0), 1.0),
                    min(max(p.y + step, 0.0), 1.0),
                )
                live[oid] = q
                moves.append((oid, q))
            return moves

        # Warm-up tick establishes every object's safe-region stamp.
        server.handle_location_updates(batch_of(1e-6), time=1.0)

        calls = []
        for module in (trace_module, profile_module, server_module):
            real = module.perf_counter

            def counting(_real=real, _name=module.__name__):
                calls.append(_name)
                return _real()

            monkeypatch.setattr(module, "perf_counter", counting)
        # Prove the tick stays on the inline fast path: the scalar
        # per-report entry point must never fire.
        monkeypatch.setattr(
            server, "handle_location_update",
            lambda *a, **k: pytest.fail("scalar path taken"),
        )
        outcome = server.handle_location_updates(batch_of(1e-6), time=2.0)
        assert len(outcome.regions) == len(live)
        assert calls == []

    def test_enabled_profiler_overhead_is_bounded(self):
        """Profiling the same stream costs < 5x the disabled run on this
        tiny scenario (the CI smoke gates the real <5% bound on a
        larger one; here we only pin that enabling cannot explode)."""
        import time

        world = _world(51, n=80)
        stream = _stream(51, world, ticks=10, movers=20)

        def run(profile):
            oracle = _Oracle(world)
            server = DatabaseServer(oracle, ServerConfig(grid_m=10))
            if profile:
                server.profile_start()
            started = time.perf_counter()
            _drive(server, oracle, world, stream, 51)
            return time.perf_counter() - started

        run(False)  # warm caches/imports
        disabled = min(run(False) for _ in range(3))
        enabled = min(run(True) for _ in range(3))
        assert enabled < disabled * 5 + 0.05

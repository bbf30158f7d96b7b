"""Tests for the server's fault handling: unknown objects, probe
retry/backoff/budget, degraded mode, time regressions, duplicate-heavy
batches (docs/ROBUSTNESS.md)."""

import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.faults import ProbeTimeout
from repro.geometry import Point, Rect
from repro.obs import EventLog


def line_positions(n=8):
    return {oid: Point(0.1 * oid + 0.05, 0.5) for oid in range(n)}


#: A range query whose x=0.355 boundary cuts through oid 3's initial
#: safe region ([0.34, 0.36] x [0.5, 0.52]), so registration must probe
#: oid 3 — and oid 3's position (0.35, 0.5) lies strictly inside it.
CUTTING_RECT = Rect(0.3, 0.4, 0.355, 0.6)


def build(oracle, events=None, **config):
    server = DatabaseServer(
        position_oracle=oracle,
        events=events,
        config=ServerConfig(**config),
    )
    return server


class TestUnknownObject:
    def test_raise_mode_is_default_and_has_a_hint(self):
        positions = line_positions()
        server = build(lambda oid: positions[oid])
        server.load_objects(positions.items())
        with pytest.raises(KeyError, match="unknown object"):
            server.handle_location_update(99, Point(0.5, 0.5), 1.0)

    def test_drop_mode_counts_and_emits(self):
        positions = line_positions()
        log = EventLog()
        server = build(
            lambda oid: positions[oid], events=log, on_unknown_object="drop"
        )
        server.load_objects(positions.items())
        outcome = server.handle_location_update(99, Point(0.5, 0.5), 1.0)
        assert outcome.safe_region is None
        assert outcome.probed == {}
        assert outcome.changes == []
        assert server.stats.unknown_updates == 1
        kinds = [e.kind for e in log.events()]
        assert "unknown_update" in kinds

    def test_drop_mode_covers_deregistered_objects(self):
        """The exact delayed-duplicate scenario: a report arrives for an
        object that was just removed."""
        positions = line_positions()
        server = build(lambda oid: positions[oid], on_unknown_object="drop")
        server.load_objects(positions.items())
        server.remove_object(3)
        outcome = server.handle_location_update(3, positions[3], 2.0)
        assert outcome.safe_region is None
        assert server.stats.unknown_updates == 1

    def test_drop_mode_answers_a_foreign_id_without_a_scan(self):
        """The ids 0..n-1 are held as a range; an id that is not an int
        is unknown at once, not after a comparison with every row
        (``range.index`` scans for such a key), in a single report, a
        batch, ``in`` and ``positions.get`` alike."""
        compared = []

        class Foreign:
            def __eq__(self, other):
                compared.append(other)
                return False

            __hash__ = object.__hash__

        positions = line_positions()
        server = build(lambda oid: positions[oid], on_unknown_object="drop")
        server.load_objects(positions.items())
        assert server._objects._dict is None  # the range form
        outcome = server.handle_location_update(Foreign(), Point(0.5, 0.5), 1.0)
        assert outcome.safe_region is None
        server.handle_location_updates([(Foreign(), Point(0.5, 0.5))], 2.0)
        assert Foreign() not in server
        assert server.positions.get(Foreign()) is None
        assert server.stats.unknown_updates == 2
        assert compared == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(on_unknown_object="explode")


class TestProbeRetry:
    def test_transient_timeout_recovers_via_retry(self):
        positions = line_positions()
        failures = {"left": 2}

        def oracle(oid):
            if oid == 3 and failures["left"] > 0:
                failures["left"] -= 1
                raise ProbeTimeout(oid)
            return positions[oid]

        log = EventLog()
        server = build(oracle, events=log, probe_retries=2)
        server.load_objects(positions.items())
        server.register_query(RangeQuery(CUTTING_RECT, query_id="r"), time=1.0)
        # Two timeouts, then the third attempt answered: never degraded.
        assert not server.is_degraded(3)
        assert server.stats.probe_timeouts == 2
        assert server.stats.probe_retries == 2
        retries = [e for e in log.events() if e.kind == "probe_retry"]
        assert [e.data["attempt"] for e in retries] == [1, 2]
        # Exponential backoff: 2nd retry waits twice as long as the 1st.
        assert retries[1].data["backoff"] == 2 * retries[0].data["backoff"]

    def test_exhausted_retries_degrade_the_object(self):
        positions = line_positions()

        def oracle(oid):
            if oid == 3:
                raise ProbeTimeout(oid)
            return positions[oid]

        log = EventLog()
        server = build(oracle, events=log, probe_retries=1,
                       degraded_max_speed=0.02)
        server.load_objects(positions.items())
        outcome = server.register_query(
            RangeQuery(CUTTING_RECT, query_id="r"), time=1.0
        )
        assert server.is_degraded(3)
        assert 3 in outcome.missed
        assert 3 not in outcome.probed  # no deliverable region
        assert server.stats.probe_timeouts == 2  # initial + 1 retry
        assert server.stats.degraded_entries == 1
        kinds = [e.kind for e in log.events()]
        assert "degraded_enter" in kinds
        server.validate()

    def test_budget_exhaustion_short_circuits(self):
        positions = line_positions()
        calls = []

        def oracle(oid):
            calls.append(oid)
            raise ProbeTimeout(oid)

        log = EventLog()
        server = build(oracle, events=log, probe_budget=1, probe_retries=3,
                       degraded_max_speed=0.02)
        server.load_objects(positions.items())
        server.register_query(RangeQuery(CUTTING_RECT, query_id="r"), time=1.0)
        # Budget 1: exactly one real attempt; the retries are all
        # short-circuited by the exhausted budget, and the target degrades.
        assert calls == [3]
        assert server.is_degraded(3)
        reasons = [
            e.data["reason"] for e in log.events()
            if e.kind == "probe_timeout"
        ]
        assert reasons[0] == "timeout"
        assert set(reasons[1:]) == {"budget"}
        with pytest.raises(ValueError):
            ServerConfig(probe_budget=0)

    def test_probes_stat_counts_only_answered_probes(self):
        positions = line_positions()
        failures = {"left": 1}

        def oracle(oid):
            if oid == 3 and failures["left"] > 0:
                failures["left"] -= 1
                raise ProbeTimeout(oid)
            return positions[oid]

        server = build(oracle, probe_retries=2)
        server.load_objects(positions.items())
        server.register_query(RangeQuery(CUTTING_RECT, query_id="r"), time=1.0)
        assert server.stats.probes == 1  # the answered attempt only


class TestDegradedMode:
    def _degraded_world(self, log=None):
        positions = line_positions()

        def oracle(oid):
            if oid == 3 and positions.get("down") == 3:
                raise ProbeTimeout(oid)
            return positions[oid]

        server = build(oracle, events=log, probe_retries=0,
                       degraded_max_speed=0.02)
        server.load_objects(positions.items())
        positions["down"] = 3
        server.register_query(RangeQuery(CUTTING_RECT, query_id="r"), time=1.0)
        assert server.is_degraded(3)
        return positions, server

    def test_degraded_region_is_reachability_bounded_and_widens(self):
        positions, server = self._degraded_world()
        region_1 = server.safe_region_of(3)
        # Silence at entry: t=1.0 since last_update_time=0, speed 0.02
        # -> radius 0.02 around p_lst=(0.35, 0.5), clipped to space.
        assert region_1.min_x == pytest.approx(0.33)
        assert region_1.max_x == pytest.approx(0.37)
        # Any later server activity re-widens the circle.
        server.handle_location_update(0, Point(0.06, 0.5), 2.0)
        region_2 = server.safe_region_of(3)
        assert region_2.min_x == pytest.approx(0.31)
        assert region_2.max_x == pytest.approx(0.39)
        assert region_2.contains_rect(region_1)
        server.validate()

    def test_degraded_without_speed_bound_covers_the_space(self):
        positions = line_positions()

        def oracle(oid):
            if oid == 3:
                raise ProbeTimeout(oid)
            return positions[oid]

        server = build(oracle, probe_retries=0)
        server.load_objects(positions.items())
        server.register_query(RangeQuery(CUTTING_RECT, query_id="r"), time=1.0)
        assert server.is_degraded(3)
        assert server.safe_region_of(3) == server.config.space
        server.validate()

    def test_own_report_exits_degraded_mode(self):
        positions, server = self._degraded_world(log=(log := EventLog()))
        positions["down"] = None
        server.handle_location_update(3, Point(0.36, 0.5), 2.5)
        assert not server.is_degraded(3)
        exits = [e for e in log.events() if e.kind == "degraded_exit"]
        assert len(exits) == 1
        assert exits[0].data["duration"] == pytest.approx(1.5)
        server.validate()

    def test_successful_probe_exits_degraded_mode(self):
        positions, server = self._degraded_world()
        positions["down"] = None
        # Re-registration probes the (wide) degraded region again.
        server.register_query(RangeQuery(CUTTING_RECT, query_id="r2"),
                              time=2.0)
        assert not server.is_degraded(3)
        server.validate()

    def test_result_changes_flag_degraded_members(self):
        positions, server = self._degraded_world()
        query = next(iter(server.queries()))
        assert 3 in query.results
        # A reachable object enters the same query: the delta must carry
        # the degraded flag for the stale member.
        positions[2] = Point(0.32, 0.5)
        outcome = server.handle_location_update(2, positions[2], 2.0)
        changes = [c for c in outcome.changes if c.query_id == "r"]
        assert changes and changes[-1].degraded == (3,)

    def test_remove_object_clears_degraded_state(self):
        positions, server = self._degraded_world()
        server.remove_object(3)
        assert server.degraded_objects() == {}


class TestTimeRegression:
    def test_backwards_time_is_clamped(self):
        positions = line_positions()
        log = EventLog()
        server = build(lambda oid: positions[oid], events=log)
        server.load_objects(positions.items())
        server.handle_location_update(0, Point(0.06, 0.5), 5.0)
        assert server.clock == 5.0
        server.handle_location_update(1, Point(0.16, 0.5), 3.0)
        assert server.clock == 5.0  # never went backwards
        assert server.stats.time_regressions == 1
        assert server._objects[1].last_update_time == 5.0
        kinds = [e.kind for e in log.events()]
        assert "time_regression" in kinds
        # The event-log clock is monotone throughout.
        times = [e.t for e in log.events()]
        assert times == sorted(times)

    def test_event_log_clock_rejects_regression_directly(self):
        log = EventLog()
        log.set_time(4.0)
        log.set_time(2.0)
        assert log.now == 4.0
        assert log.time_regressions == 1


class TestDuplicateBatches:
    def test_dup_heavy_batch_identical_to_sequential(self):
        rng = random.Random(17)
        positions = {
            oid: Point(rng.random(), rng.random()) for oid in range(60)
        }

        def make_server(store):
            server = DatabaseServer(
                position_oracle=lambda oid: store[oid],
                config=ServerConfig(),
            )
            server.load_objects(store.items())
            for i in range(5):
                x, y = rng.random() * 0.8, rng.random() * 0.8
                server.register_query(
                    RangeQuery(Rect(x, y, x + 0.2, y + 0.2), query_id=f"r{i}")
                )
            for i in range(3):
                server.register_query(
                    KNNQuery(Point(rng.random(), rng.random()), 4,
                             query_id=f"k{i}")
                )
            return server

        # One dup-heavy batch: several objects report twice, with both
        # reports landing in different grid cells.
        moves = []
        for oid in (7, 7, 12, 3, 7, 12, 21, 3):
            moves.append((oid, Point(rng.random(), rng.random())))

        pos_a = dict(positions)
        rng_state = rng.getstate()
        server_a = make_server(pos_a)
        rng.setstate(rng_state)
        pos_b = dict(positions)
        server_b = make_server(pos_b)

        for oid, target in moves:
            pos_a[oid] = target
            pos_b[oid] = target
        final = {oid: target for oid, target in moves}

        batch = server_a.handle_location_updates(
            [(oid, target) for oid, target in moves], time=1.0
        )
        outcomes = [
            server_b.handle_location_update(oid, target, 1.0)
            for oid, target in moves
        ]

        # Bit-identical end state: same regions, same results.
        for oid in positions:
            assert server_a.safe_region_of(oid) == server_b.safe_region_of(oid)
        results_a = {q.query_id: q.result_snapshot() for q in server_a.queries()}
        results_b = {q.query_id: q.result_snapshot() for q in server_b.queries()}
        assert results_a == results_b
        assert batch.changes == [c for o in outcomes for c in o.changes]
        # The delivered region per duplicated object is its *final* one.
        for oid in final:
            assert batch.regions[oid] == server_b.safe_region_of(oid)
        server_a.validate()
        server_b.validate()

"""Tests for server snapshot / restore."""

import io
import json
import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.extensions import CircleRangeQuery
from repro.core.snapshot import (
    dump_server,
    load_server,
    replay_updates,
    restore_server,
    snapshot_server,
)
from repro.geometry import Point, Rect
from repro.obs import EventLog, read_events
from repro.sharding import ShardedServer, restore_shards, snapshot_shards


def build_server(seed=0, n=120):
    rng = random.Random(seed)
    positions = {oid: Point(rng.random(), rng.random()) for oid in range(n)}
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        config=ServerConfig(grid_m=7, steadiness=0.25),
    )
    server.load_objects(positions.items())
    for i in range(4):
        x, y = rng.random() * 0.85, rng.random() * 0.85
        server.register_query(
            RangeQuery(Rect(x, y, x + 0.1, y + 0.1), query_id=f"r{i}")
        )
    for i in range(4):
        server.register_query(
            KNNQuery(Point(rng.random(), rng.random()), 3, query_id=f"k{i}")
        )
    return rng, positions, server


class TestSnapshotShape:
    def test_json_round_trippable(self):
        _, _, server = build_server()
        payload = snapshot_server(server)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["version"] == 2
        assert len(payload["queries"]) == 8
        assert len(payload["objects"]) == 120

    def test_extension_queries_rejected(self):
        rng, positions, server = build_server(n=20)
        server.register_query(CircleRangeQuery(Point(0.5, 0.5), 0.1))
        with pytest.raises(TypeError):
            snapshot_server(server)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            restore_server({"version": 99}, lambda oid: None)

    def test_version_1_snapshot_still_loads(self):
        """Pre-fault-era snapshots carry neither clock, degraded set,
        nor the fault-handling config fields — they must restore to a
        healthy faults-off server."""
        _, positions, server = build_server(seed=11, n=30)
        payload = snapshot_server(server)
        legacy = json.loads(json.dumps(payload))
        legacy["version"] = 1
        del legacy["time"]
        del legacy["degraded"]
        for key in ("probe_timeout", "probe_retries", "probe_budget",
                    "on_unknown_object", "degraded_max_speed"):
            del legacy["config"][key]
        restored = restore_server(legacy, lambda oid: positions[oid])
        assert restored.object_count == 30
        assert restored.clock == 0.0
        assert restored.degraded_objects() == {}
        assert restored.config.on_unknown_object == "raise"
        restored.validate()

    def test_kernel_min_rows_round_trips(self):
        """Snapshots written while ``ServerConfig`` carried the kernel
        switches (``kernel_backend``, ``kernel_min_rows``) restore on the
        single-server and the sharded path, and re-snapshot without
        either key."""
        positions = {oid: Point(0.1 * oid + 0.05, 0.5) for oid in range(5)}
        server = DatabaseServer(
            position_oracle=lambda oid: positions[oid],
            config=ServerConfig(grid_m=4),
        )
        server.load_objects(positions.items())
        server.register_query(KNNQuery(Point(0.5, 0.5), 2, query_id="k"))
        payload = json.loads(json.dumps(snapshot_server(server)))
        assert "kernel_backend" not in payload["config"]
        assert "kernel_min_rows" not in payload["config"]
        legacy = json.loads(json.dumps(payload))
        legacy["config"]["kernel_backend"] = "python"
        legacy["config"]["kernel_min_rows"] = 3

        restored = restore_server(legacy, lambda oid: positions[oid])
        assert restored.config == server.config
        restored.validate()
        assert snapshot_server(restored) == payload

        cluster = ShardedServer(
            lambda oid: positions[oid], ServerConfig(grid_m=4), n_shards=2
        )
        try:
            cluster.load_objects(sorted(positions.items()), 0.0)
            envelope = json.loads(json.dumps(snapshot_shards(cluster)))
        finally:
            cluster.close()
        for shard in envelope["shards"]:
            shard["config"]["kernel_backend"] = "python"
            shard["config"]["kernel_min_rows"] = 3
        sharded = restore_shards(envelope, lambda oid: positions[oid])
        try:
            assert sharded.config == server.config
            sharded.validate()
            for shard in snapshot_shards(sharded)["shards"]:
                assert "kernel_backend" not in shard["config"]
                assert "kernel_min_rows" not in shard["config"]
        finally:
            sharded.close()

    def test_relief_flag_of_older_snapshots_is_dropped(self):
        """Snapshots written while ``ServerConfig`` had an
        ``anti_storm_relief`` field still restore; the key is ignored."""
        _, positions, server = build_server(seed=12, n=30)
        payload = json.loads(json.dumps(snapshot_server(server)))
        assert "anti_storm_relief" not in payload["config"]
        payload["config"]["anti_storm_relief"] = True
        restored = restore_server(payload, lambda oid: positions[oid])
        assert restored.config == server.config
        restored.validate()

    def test_fault_state_round_trips(self):
        """Clock, degraded set, and fault config survive the round trip."""
        from repro.faults import ProbeTimeout

        positions = {oid: Point(0.1 * oid + 0.05, 0.5) for oid in range(8)}

        def oracle(oid):
            if oid == 3:
                raise ProbeTimeout(oid)
            return positions[oid]

        server = DatabaseServer(
            position_oracle=oracle,
            config=ServerConfig(
                probe_timeout=0.125, probe_retries=1, probe_budget=64,
                on_unknown_object="drop", degraded_max_speed=0.02,
            ),
        )
        server.load_objects(positions.items())
        # Registration probes every object whose safe region straddles
        # the query boundary; oid 3 times out and enters degraded mode.
        server.register_query(
            RangeQuery(Rect(0.3, 0.4, 0.35, 0.6), query_id="r"), time=1.5
        )
        assert server.is_degraded(3)
        assert server.clock == 1.5

        payload = json.loads(json.dumps(snapshot_server(server)))
        assert payload["version"] == 2
        restored = restore_server(payload, oracle)
        assert restored.clock == server.clock
        assert restored.degraded_objects() == server.degraded_objects()
        assert restored.config.probe_timeout == 0.125
        assert restored.config.probe_retries == 1
        assert restored.config.probe_budget == 64
        assert restored.config.on_unknown_object == "drop"
        assert restored.config.degraded_max_speed == 0.02
        restored.validate()


class TestRoundTrip:
    def test_state_identical_after_restore(self):
        rng, positions, server = build_server(seed=3)
        payload = snapshot_server(server)
        restored = restore_server(payload, lambda oid: positions[oid])

        assert restored.object_count == server.object_count
        assert restored.query_count == server.query_count
        for oid in positions:
            assert restored.safe_region_of(oid) == server.safe_region_of(oid)
        original = {q.query_id: q for q in server.queries()}
        for query in restored.queries():
            assert query.result_snapshot() == \
                original[query.query_id].result_snapshot()
        restored.validate()

    def test_monitoring_continues_identically(self):
        """Drive the original and the restored server through the same
        movement script — results and stats must not diverge."""
        rng, positions, server = build_server(seed=5)
        restored = restore_server(
            snapshot_server(server), lambda oid: positions_b[oid]
        )
        positions_b = dict(positions)

        script = []
        r = random.Random(99)
        for _ in range(150):
            oid = r.randrange(len(positions))
            script.append(
                (oid, Point(r.random(), r.random()))
            )

        t = 0.0
        for oid, target in script:
            t += 0.01
            positions[oid] = target
            positions_b[oid] = target
            if not server.safe_region_of(oid).contains_point(target):
                server.handle_location_update(oid, target, t)
            if not restored.safe_region_of(oid).contains_point(target):
                restored.handle_location_update(oid, target, t)

        for query_a in server.queries():
            query_b = next(
                q for q in restored.queries()
                if q.query_id == query_a.query_id
            )
            assert query_a.result_snapshot() == query_b.result_snapshot()

    def test_file_round_trip(self, tmp_path):
        rng, positions, server = build_server(seed=7, n=40)
        path = tmp_path / "server.json"
        with open(path, "w") as handle:
            dump_server(server, handle)
        with open(path) as handle:
            restored = load_server(handle, lambda oid: positions[oid])
        assert restored.object_count == 40
        restored.validate()

    def test_flight_recorder_replay_catches_up(self, tmp_path):
        """Crash recovery (docs/ROBUSTNESS.md): restore a mid-flight
        snapshot, replay the flight-recorder tail, and end up with the
        same query results as the server that never crashed."""
        rng = random.Random(23)
        positions = {
            oid: Point(rng.random(), rng.random()) for oid in range(50)
        }
        script = []
        t = 0.0
        for _ in range(120):
            t += 0.01
            oid = rng.randrange(50)
            script.append((round(t, 9), oid, Point(rng.random(), rng.random())))
        # Duplicate a few reports (same oid, later time) — the faulted
        # stream shape a recovered server must also digest.
        script.extend(
            (round(t + 0.01 * (i + 1), 9), oid, target)
            for i, (_, oid, target) in enumerate(script[::40])
        )
        script.sort()

        server_box = [None]

        def oracle(oid):
            # Answer probes with the object's last scripted position as
            # of the probing server's clock — identical answers for the
            # live run and the replay, which is what makes recovery
            # deterministic.
            best = positions[oid]
            for when, who, target in script:
                if when > server_box[0].clock:
                    break
                if who == oid:
                    best = target
            return best

        sink = tmp_path / "recorder.jsonl"
        log = EventLog(capacity=16, sink=sink)  # tiny ring; sink has all
        live = DatabaseServer(position_oracle=oracle, events=log)
        server_box[0] = live
        live.load_objects(positions.items())
        for i in range(6):
            x, y = rng.random() * 0.8, rng.random() * 0.8
            live.register_query(
                RangeQuery(Rect(x, y, x + 0.2, y + 0.2), query_id=f"r{i}")
            )

        payload = None
        for when, oid, target in script:
            live.handle_location_update(oid, target, when)
            if payload is None and when >= 0.6:
                payload = json.loads(json.dumps(snapshot_server(live)))
        log.close()
        assert payload is not None and payload["time"] >= 0.6

        restored = restore_server(payload, oracle)
        server_box[0] = restored
        assert restored.clock == payload["time"]
        replayed, skipped = replay_updates(
            restored, read_events(sink)
        )
        assert replayed > 0
        assert skipped == 0

        results_live = {
            q.query_id: q.result_snapshot() for q in live.queries()
        }
        results_restored = {
            q.query_id: q.result_snapshot() for q in restored.queries()
        }
        assert results_live == results_restored
        for oid in positions:
            assert restored.safe_region_of(oid) == live.safe_region_of(oid)
        restored.validate()

    def test_string_object_ids(self):
        positions = {"car-1": Point(0.2, 0.2), "car-2": Point(0.8, 0.8)}
        server = DatabaseServer(position_oracle=lambda oid: positions[oid])
        server.load_objects(positions.items())
        server.register_query(RangeQuery(Rect(0, 0, 0.5, 0.5), query_id="r"))
        buffer = io.StringIO()
        dump_server(server, buffer)
        buffer.seek(0)
        restored = load_server(buffer, lambda oid: positions[oid])
        assert "car-1" in restored
        query = next(iter(restored.queries()))
        assert query.results == {"car-1"}

"""Snapshot round-trips for the sharded deployment (docs/SHARDING.md).

The envelope nests one core-format (v2) snapshot per shard; restore must
rebuild the coordinator's home table and merged views exactly, and a
restored cluster must continue a replay identically to one that never
stopped — in either worker mode, since the mode is not part of the
persisted state.
"""

import json
import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.snapshot import restore_server, snapshot_server
from repro.geometry import Point, Rect
from repro.sharding import ShardedServer, restore_shards, snapshot_shards


class _Oracle:
    def __init__(self, world):
        self.positions = dict(world)

    def __call__(self, oid):
        return self.positions[oid]

    def apply(self, batch):
        for oid, p in batch:
            self.positions[oid] = p


def _stream(seed, world, ticks, start_tick=1):
    positions = dict(world)
    rng = random.Random(seed)
    out = []
    for tick in range(1, start_tick + ticks):
        batch = []
        for oid in rng.sample(sorted(positions), 15):
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.gauss(0, 0.015), 0.0), 1.0),
                min(max(p.y + rng.gauss(0, 0.015), 0.0), 1.0),
            )
            batch.append((oid, positions[oid]))
        if tick >= start_tick:
            out.append((float(tick), batch))
        else:
            for oid, p in batch:
                positions[oid] = p
    return out


def _build(seed=17, n=60):
    rng = random.Random(seed)
    world = {f"o{i}": Point(rng.random(), rng.random()) for i in range(n)}
    oracle = _Oracle(world)
    cluster = ShardedServer(
        oracle, ServerConfig(grid_m=16, max_speed=0.04), n_shards=3
    )
    cluster.load_objects(sorted(world.items()), 0.0)
    for i, q in enumerate([
        RangeQuery(Rect(0.1, 0.1, 0.45, 0.45), query_id="r0"),
        KNNQuery(Point(0.6, 0.6), 3, query_id="k0"),
        KNNQuery(Point(0.2, 0.8), 2, query_id="k1"),
    ]):
        cluster.register_query(q, 0.0)
    return cluster, oracle, world


@pytest.mark.parametrize("restore_workers", [0, 2])
def test_roundtrip_preserves_views_and_continues_identically(restore_workers):
    cluster, oracle, world = _build()
    warmup = _stream(33, world, ticks=12)
    for t, batch in warmup:
        oracle.apply(batch)
        cluster.handle_location_updates(batch, t)

    payload = snapshot_shards(cluster)
    assert payload["kind"] == "sharded"
    assert payload["n_shards"] == 3
    assert len(payload["shards"]) == 3

    before = {
        q.query_id: q.result_snapshot() for q in cluster.queries()
    }
    restored = restore_shards(
        payload, _Oracle(oracle.positions), n_workers=restore_workers
    )
    try:
        after = {
            q.query_id: q.result_snapshot() for q in restored.queries()
        }
        assert after == before
        assert restored.object_count == cluster.object_count
        assert restored.shard_object_counts() == cluster.shard_object_counts()
        assert restored.clock == cluster.clock

        # Both replicas continue the same tail identically.
        oracle2 = _Oracle(oracle.positions)
        tail = _stream(34, oracle.positions, ticks=10)
        for t, batch in tail:
            oracle.apply(batch)
            oracle2.apply(batch)
            cluster.handle_location_updates(batch, t + 12.0)
            restored.handle_location_updates(batch, t + 12.0)
            a = {q.query_id: q.result_snapshot() for q in cluster.queries()}
            b = {q.query_id: q.result_snapshot() for q in restored.queries()}
            assert a == b
        restored.validate()
    finally:
        restored.close()


def test_snapshot_refuses_dead_shards():
    cluster, _, _ = _build()
    cluster.kill_shard(1, time=1.0)
    with pytest.raises(ValueError):
        snapshot_shards(cluster)


def test_holey_topology_roundtrip_after_remove_shard():
    """A cluster that shrank (retired shard 1) checkpoints its *live*
    ids; restore rebuilds the same holey topology and continues
    identically."""
    cluster, oracle, world = _build()
    cluster.remove_shard(1, time=0.5)
    warmup = _stream(35, world, ticks=8)
    for t, batch in warmup:
        oracle.apply(batch)
        cluster.handle_location_updates(batch, t)

    payload = snapshot_shards(cluster)
    assert payload["n_shards"] == 3  # slot space, ids never reused
    assert payload["shard_ids"] == [0, 2]
    assert len(payload["shards"]) == 2

    restored = restore_shards(payload, _Oracle(oracle.positions))
    try:
        assert restored.live_shard_ids() == (0, 2)
        assert restored.retired_shards() == frozenset({1})
        before = {q.query_id: q.result_snapshot() for q in cluster.queries()}
        after = {q.query_id: q.result_snapshot() for q in restored.queries()}
        assert after == before
        assert restored.shard_object_counts() == cluster.shard_object_counts()

        oracle2 = _Oracle(oracle.positions)
        tail = _stream(36, oracle.positions, ticks=6)
        for t, batch in tail:
            oracle.apply(batch)
            oracle2.apply(batch)
            cluster.handle_location_updates(batch, t + 8.0)
            restored.handle_location_updates(batch, t + 8.0)
            a = {q.query_id: q.result_snapshot() for q in cluster.queries()}
            b = {q.query_id: q.result_snapshot() for q in restored.queries()}
            assert a == b
        restored.validate()
    finally:
        restored.close()


def test_restore_rejects_torn_snapshot():
    """An object appearing in two shard payloads means the checkpoint
    caught a migration between its evict and add; restoring that split
    would corrupt the home table, so it must refuse."""
    cluster, oracle, _ = _build()
    payload = snapshot_shards(cluster)
    donor = next(p for p in payload["shards"] if p["objects"])
    key = sorted(donor["objects"])[0]
    target = payload["shards"][-1]
    if target is donor:
        target = payload["shards"][0]
    target["objects"][key] = donor["objects"][key]
    with pytest.raises(ValueError, match="torn snapshot"):
        restore_shards(payload, oracle)


def test_restore_rejects_id_payload_length_mismatch():
    cluster, oracle, _ = _build()
    payload = snapshot_shards(cluster)
    payload["shard_ids"] = payload["shard_ids"][:-1]
    with pytest.raises(ValueError, match="shard ids"):
        restore_shards(payload, oracle)


def test_restore_drops_the_relief_flag_of_older_snapshots():
    """Every shard payload of an older envelope names the removed
    ``anti_storm_relief`` config field; restore ignores it."""
    cluster, oracle, _ = _build()
    payload = snapshot_shards(cluster)
    for shard in payload["shards"]:
        shard["config"]["anti_storm_relief"] = False
    restored = restore_shards(payload, oracle)
    try:
        assert restored.config == cluster.config
        assert restored.shard_object_counts() == cluster.shard_object_counts()
        restored.validate()
    finally:
        restored.close()


def test_restore_drops_the_tree_fanout_of_older_snapshots():
    """Snapshots written while the server's object index was an R*-tree
    carry ``"index_max_entries": 32``; both restore paths ignore it and
    rebuild the cell object index from the stored regions."""
    cluster, oracle, _ = _build()
    single = DatabaseServer(oracle, ServerConfig(grid_m=16, max_speed=0.04))
    single.load_objects(sorted(oracle.positions.items()), 0.0)
    single.register_query(KNNQuery(Point(0.5, 0.5), 3, query_id="k"), 0.0)
    payload = snapshot_server(single)
    assert "index_max_entries" not in payload["config"]
    payload["config"]["index_max_entries"] = 32
    restored_single = restore_server(json.loads(json.dumps(payload)), oracle)
    assert restored_single.config == single.config
    for oid in oracle.positions:
        assert restored_single.object_index.rect_of(oid) == \
            single.safe_region_of(oid)
    restored_single.validate()

    sharded = snapshot_shards(cluster)
    for shard in sharded["shards"]:
        shard["config"]["index_max_entries"] = 32
    restored = restore_shards(sharded, oracle)
    try:
        assert restored.config == cluster.config
        assert restored.shard_object_counts() == cluster.shard_object_counts()
        restored.validate()
    finally:
        restored.close()


def test_restore_rejects_foreign_payloads():
    cluster, oracle, _ = _build()
    payload = snapshot_shards(cluster)
    with pytest.raises(ValueError):
        restore_shards({"kind": "single"}, oracle)
    bad = dict(payload)
    bad["version"] = 99
    with pytest.raises(ValueError):
        restore_shards(bad, oracle)

"""What one sharded report costs, and what it must still answer.

The sharded update path ships one op frame per report (docs/SHARDING.md
"What a sharded report costs").  These tests pin the pieces that make
that frame cheap without changing a single answer:

* a shard finds the partials a report touched among the relevant
  queries of the touched objects' resident cells — always exactly the
  set the all-query membership scan finds, in-process and behind a
  worker pipe, through migrations, probes, probe timeouts, mid-run
  registration and a killed shard;
* a ``batch`` response is flat built-in values, and decoding it gives
  back every field of the shard's ``UpdateOutcome`` but the local
  ``changes``;
* ``handle_location_updates`` reports merged-view deltas only;
* a multi-op shard ``batch`` answers exactly as its ops run one by one;
* a multi-report ``handle_location_updates`` ships one op stream per
  shard and answers exactly as its reports sent singly.
"""

import io
import pickle
import random

import pytest

from repro.core import KNNQuery, RangeQuery, ServerConfig
from repro.faults import ProbeTimeout
from repro.geometry import Point, Rect
from repro.sharding import ShardedServer
from repro.sharding import backend as shard_backend
from repro.sharding.backend import ShardBackend, decode_outcome, query_spec


class _Oracle:
    """True positions; objects in ``unreachable`` time out when probed."""

    def __init__(self, world):
        self.positions = dict(world)
        self.unreachable: set = set()

    def __call__(self, oid):
        if oid in self.unreachable:
            raise ProbeTimeout(oid)
        return self.positions[oid]

    def drift(self, rng, step):
        for oid, p in self.positions.items():
            self.positions[oid] = Point(
                min(max(p.x + rng.uniform(-step, step), 0.0), 1.0),
                min(max(p.y + rng.uniform(-step, step), 0.0), 1.0),
            )


def _world(seed, n):
    rng = random.Random(seed)
    return {f"o{i}": Point(rng.random(), rng.random()) for i in range(n)}


def _queries(rng, count, prefix=""):
    out = []
    for i in range(count):
        if i % 2:
            x, y = rng.random() * 0.8, rng.random() * 0.8
            out.append(RangeQuery(
                Rect(x, y, x + 0.15, y + 0.15), query_id=f"{prefix}r{i}"
            ))
        else:
            out.append(KNNQuery(
                Point(rng.random(), rng.random()), 2 + i % 3,
                order_sensitive=bool(i % 4), query_id=f"{prefix}k{i}",
            ))
    return out


def _snapshots(cluster):
    return {q.query_id: q.result_snapshot() for q in cluster.queries()}


# ---------------------------------------------------------------------------
# The partial lookup


def _checked_lookup(record):
    """``ShardBackend._affected_queries`` that also runs the full scan.

    Raises inside the shard on any disagreement — a worker marshals the
    ``AssertionError`` back to the coordinator, so the check needs no
    new op and holds behind the pipe as well as in-process.
    """
    lookup = ShardBackend._affected_queries

    def checked(self, touched, reevaluated):
        found = lookup(self, touched, reevaluated)
        scanned = set(reevaluated) | {
            query.query_id for query in self._queries.values()
            if not touched.isdisjoint(query.results)
        }
        if found != scanned:
            raise AssertionError(
                f"shard {self.shard_id}: cell lookup {sorted(found)} "
                f"!= membership scan {sorted(scanned)} for {sorted(touched)}"
            )
        record.append(len(found - set(reevaluated)))
        return found

    return checked


def _replay(cluster, oracle, rng):
    """Reports, migrations, probes, timeouts, churn, resharding, a kill."""
    late = _queries(random.Random(99), 3, prefix="late-")
    for tick in range(1, 33):
        t = float(tick)
        oracle.drift(rng, 0.02)
        if tick == 8:
            oracle.unreachable = set(rng.sample(sorted(oracle.positions), 25))
        if tick == 17:
            oracle.unreachable = set()
        reporters = [
            oid for oid in rng.sample(sorted(oracle.positions), 40)
            if oid not in oracle.unreachable
        ]
        if tick % 3:
            cluster.handle_location_updates(
                [(oid, oracle.positions[oid]) for oid in reporters], t
            )
        else:
            for oid in reporters[:12]:
                cluster.handle_location_update(oid, oracle.positions[oid], t)
        if tick == 10:
            for query in late:
                cluster.register_query(query, t)
        if tick == 13:
            cluster.deregister_query(late[0])
        if tick == 19:
            cluster.add_shard(t)
        if tick == 23:
            cluster.remove_shard(1, t)
        if tick == 26:
            cluster.kill_shard(cluster.live_shard_ids()[0], t)
    cluster.validate()


@pytest.mark.parametrize("n_workers", [0, 1])
def test_partial_lookup_equals_the_membership_scan(monkeypatch, n_workers):
    record: list[int] = []
    # Patched before the cluster forks its workers, which inherit it.
    monkeypatch.setattr(
        ShardBackend, "_affected_queries", _checked_lookup(record)
    )
    world = _world(3, 300)
    oracle = _Oracle(world)
    cluster = ShardedServer(
        oracle, ServerConfig(grid_m=8, max_speed=0.05),
        n_shards=3, n_workers=n_workers,
    )
    try:
        cluster.bootstrap(
            sorted(world.items()), _queries(random.Random(4), 12), 0.0
        )
        _replay(cluster, oracle, random.Random(5))
        stats = cluster.stats
    finally:
        cluster.close()
    # The replay reached every path the lookup serves.
    assert stats.probes > 0
    assert stats.probe_timeouts > 0 and stats.degraded_entries > 0
    if not n_workers:
        assert len(record) > 200
        # Members found beyond the reevaluated queries: the case the
        # lookup (and the scan before it) exists for.
        assert sum(1 for extra in record if extra) > 50


# ---------------------------------------------------------------------------
# The wire frame


class _NoClasses(pickle.Unpickler):
    """Refuses every class a pickle names: plain built-ins only."""

    def find_class(self, module, name):
        raise AssertionError(f"frame carries a {module}.{name} instance")


def _fields(outcome):
    return (
        outcome.safe_region, outcome.probed, outcome.missed,
        outcome.queries_checked, outcome.queries_reevaluated,
    )


def test_wire_frames_decode_to_the_backend_outcome(monkeypatch):
    encoded = []
    encode = shard_backend.encode_outcome

    def spy(outcome):
        encoded.append(outcome)
        return encode(outcome)

    monkeypatch.setattr(shard_backend, "encode_outcome", spy)
    world = _world(8, 60)
    oracle = _Oracle(world)
    backend = ShardBackend(0, ServerConfig(grid_m=4), oracle)
    rng = random.Random(9)
    backend.bootstrap(
        [(oid, (p.x, p.y)) for oid, p in sorted(world.items())],
        [query_spec(q) for q in _queries(rng, 8)],
        0.0,
    )
    seen = {"plain": 0, "probed": 0, "missed": 0, "evict": 0, "add": 0}
    for tick in range(1, 41):
        oracle.drift(rng, 0.03)
        oracle.unreachable = (
            set(rng.sample(sorted(world), 6)) if tick % 5 == 0 else set()
        )
        movers = [
            oid for oid in rng.sample(sorted(world), 5)
            if oid not in oracle.unreachable
        ]
        ops = [
            ("update", oid, (oracle.positions[oid].x, oracle.positions[oid].y))
            for oid in movers
        ]
        if tick % 4 == 0:
            # A migration's two halves (on one backend here).
            oid = movers[0]
            p = oracle.positions[oid]
            ops.append(("evict", oid))
            ops.append(("add", oid, (p.x, p.y)))
        encoded.clear()
        response = backend.batch(ops, float(tick))
        _NoClasses(io.BytesIO(pickle.dumps(response))).load()
        frames = response["outcomes"]
        assert len(frames) == len(ops) == len(encoded)
        for op, frame, outcome in zip(ops, frames, encoded):
            decoded = decode_outcome(frame)
            assert _fields(decoded) == _fields(outcome)
            assert decoded.changes == []
            if op[0] != "update":
                seen[op[0]] += 1
            elif outcome.missed:
                seen["missed"] += 1
            elif outcome.probed:
                seen["probed"] += 1
            else:
                seen["plain"] += 1
    assert all(seen.values()), seen


def test_probe_answers_cross_the_pipe_as_coordinates():
    world = _world(12, 40)
    oracle = _Oracle(world)
    cluster = ShardedServer(
        oracle, ServerConfig(grid_m=4), n_shards=2, n_workers=1
    )
    try:
        cluster.load_objects(sorted(world.items()), 0.0)
        # Registration probes every object the query cannot decide.
        outcome = cluster.register_query(
            KNNQuery(Point(0.5, 0.5), 5, query_id="k"), 1.0
        )
        assert outcome.probed
        assert len(cluster.queries()) == 1
        cluster.validate()
    finally:
        cluster.close()


# ---------------------------------------------------------------------------
# Merged deltas


def test_batch_reports_merged_deltas_only():
    """``BatchOutcome.changes`` chain each merged view from its state
    before the batch to its state after; a shard's local snapshots
    never leak in (they used to: 212 of 314 entries in this world)."""
    world = _world(21, 300)
    oracle = _Oracle(world)
    cluster = ShardedServer(oracle, ServerConfig(grid_m=8), n_shards=3)
    cluster.bootstrap(
        sorted(world.items()), _queries(random.Random(22), 12), 0.0
    )
    rng = random.Random(23)
    entries = 0
    for tick in range(1, 31):
        oracle.drift(rng, 0.02)
        batch = [
            (oid, oracle.positions[oid])
            for oid in rng.sample(sorted(world), 40)
        ]
        before = _snapshots(cluster)
        out = cluster.handle_location_updates(batch, float(tick))
        after = _snapshots(cluster)
        state = dict(before)
        for change in out.changes:
            assert change.old == state[change.query_id]
            state[change.query_id] = change.new
        assert state == after
        entries += len(out.changes)
    assert entries > 0


# ---------------------------------------------------------------------------
# Multi-op shard batches


def test_multi_op_batch_equals_the_ops_run_singly():
    world = _world(31, 120)
    oracle = _Oracle(world)
    rng = random.Random(32)
    specs = [query_spec(q) for q in _queries(rng, 10)]
    twins = []
    for _ in range(2):
        backend = ShardBackend(0, ServerConfig(grid_m=6), oracle)
        backend.bootstrap(
            [(oid, (p.x, p.y)) for oid, p in sorted(world.items())],
            specs, 0.0,
        )
        twins.append(backend)
    batched, single = twins
    for tick in range(1, 21):
        oracle.drift(rng, 0.03)
        oracle.unreachable = (
            set(rng.sample(sorted(world), 6)) if tick % 5 == 0 else set()
        )
        ops = [
            ("update", oid, (oracle.positions[oid].x, oracle.positions[oid].y))
            for oid in rng.sample(sorted(world), 12)
            if oid not in oracle.unreachable
        ]
        if tick % 4 == 0:
            oid, p = ops[0][1], oracle.positions[ops[0][1]]
            ops += [("evict", oid), ("add", oid, (p.x, p.y))]
        frames = batched.batch(ops, float(tick))["outcomes"]
        assert frames == [
            single.batch([op], float(tick))["outcomes"][0] for op in ops
        ]
    ids = [spec["query_id"] for spec in specs]
    assert batched.query_partials(ids) == single.query_partials(ids)


def test_multi_report_sharded_batches_still_plan():
    """``handle_location_updates`` still plans a tick coordinator-side:
    one ``batch`` op stream per shard, several ops long, whose merged
    answers equal the same reports sent singly in the plan's order."""
    world = _world(31, 300)
    clusters = []
    for _ in range(2):
        oracle = _Oracle(world)
        cluster = ShardedServer(oracle, ServerConfig(grid_m=8), n_shards=2)
        cluster.bootstrap(
            sorted(world.items()), _queries(random.Random(32), 12), 0.0
        )
        clusters.append((cluster, oracle))
    (batched, oracle_b), (single, oracle_s) = clusters
    streams = []
    dispatch = batched._dispatch

    def recording(per_shard, time):
        streams.append({shard: len(ops) for shard, ops in per_shard.items()})
        return dispatch(per_shard, time)

    batched._dispatch = recording
    rng = random.Random(33)
    for tick in range(1, 6):
        oracle_b.drift(rng, 0.02)
        oracle_s.positions = dict(oracle_b.positions)
        reports = [
            (oid, oracle_b.positions[oid])
            for oid in rng.sample(sorted(world), 60)
        ]
        batched.handle_location_updates(reports, float(tick))
        cells = single.router.grid.cells_of_points([p for _, p in reports])
        for i in sorted(range(len(reports)), key=lambda i: (cells[i], i)):
            single.handle_location_update(*reports[i], float(tick))
        assert _snapshots(batched) == _snapshots(single)
        for oid in world:
            assert batched.safe_region_of(oid) == single.safe_region_of(oid)
    assert len(streams) == 5
    assert all(
        len(stream) == 2 and min(stream.values()) > 1 for stream in streams
    )
    batched.validate()
    single.validate()

"""Per-op replay of a tick's reports through a shard.

A shard's ``batch`` op runs a tick's reports one by one through the
server's per-report entry points.  Its per-op outcomes and final state
must be bit-identical to a plain ``DatabaseServer`` fed the same reports
through ``handle_location_update``.
"""

from __future__ import annotations

import random

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.sharding.backend import ShardBackend, decode_outcome, query_spec

_QUERIES = (
    RangeQuery(Rect(0.1, 0.1, 0.6, 0.6), query_id="r0"),
    KNNQuery(Point(0.5, 0.5), 3, query_id="k0"),
)


def _live():
    rng = random.Random(11)
    return {f"o{i}": Point(rng.random(), rng.random()) for i in range(40)}


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


class TestPlannedTickContext:
    def test_per_op_replay_matches_unplanned(self):
        """A shard ``batch`` of update ops answers op by op exactly as
        the plain sequential path does."""
        live_a, live_b = _live(), _live()
        backend = ShardBackend(
            0, ServerConfig(grid_m=5), lambda oid: live_a[oid]
        )
        backend.server.load_objects(live_a.items())
        for query in _QUERIES:
            backend.register(query_spec(query), 0.0)
        server = DatabaseServer(
            lambda oid: live_b[oid], ServerConfig(grid_m=5)
        )
        server.load_objects(live_b.items())
        for query in _QUERIES:
            server.register_query(query, time=0.0)
        # One shared update stream, generated apart from both oracles so
        # each side sees positions advance tick by tick.
        batches = _batches(dict(live_a), random.Random(99))
        clock = 0.0
        for batch in batches:
            clock += 1.0
            live_a.update(batch)
            live_b.update(batch)
            frames = backend.batch(
                [("update", oid, (p.x, p.y)) for oid, p in batch], clock
            )["outcomes"]
            for frame, (oid, p) in zip(frames, batch):
                shard = decode_outcome(frame)
                plain = server.handle_location_update(oid, p, clock)
                assert shard.safe_region == plain.safe_region
                assert shard.probed == plain.probed
                assert shard.missed == plain.missed
            assert {
                q.query_id: q.result_snapshot()
                for q in backend.server.queries()
            } == {q.query_id: q.result_snapshot() for q in server.queries()}
        assert (
            backend.server.stats.queries_checked
            == server.stats.queries_checked
        )
        assert backend.server.stats.probes == server.stats.probes

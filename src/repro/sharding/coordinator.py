"""The sharded deployment's coordinator (docs/SHARDING.md).

:class:`ShardedServer` presents the single-server surface —
``load_objects`` / ``register_query`` / ``handle_location_update(s)`` /
``stats`` — over N per-cell shards.  It owns all cross-shard state:

* the **home table** (object → shard), updated when an update's
  destination cell is owned by a different shard: the old home evicts
  (``DatabaseServer.evict_object`` repairs its local results) and the
  new home adds the object;
* the **merged views** — the caller's original query objects, whose
  ``results``/``radius`` the coordinator maintains from per-shard
  partial results.  Range results are the union of the holders'
  partials; kNN pools each holder's local members (with their
  safe-region distance bounds) and re-ranks them with
  ``ties.top_k_rows`` in id order — the ranking key
  ``(squared distance, oid)`` of ``repro.geometry.ties``;
* the **fan-out ledger** (query → holder shards).  A kNN view's merged
  radius is the conservative bound ``max_dist`` of its k-th pooled
  candidate; whenever the bound's circle reaches cells of a non-holder,
  the query is registered there too (sticky), so the merged top-k can
  never miss an object a holder does not see.

Shards run in-process (``n_workers=0`` — deterministic, and results
are pinned equivalent to the single-server baseline in
``tests/test_sharding_equivalence.py``) or as one ``multiprocessing``
worker each (``repro.sharding.worker``), escaping the GIL.

A dead shard (``kill_shard`` — the failure drill) stays in the merge as
a *frozen* partial: its members remain in results but are flagged
``degraded``, never silently dropped, until the objects re-home by
reporting — routing falls over to each cell's rendezvous runner-up.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import fields as _dataclass_fields
from typing import Hashable, Iterable

import numpy as np

from repro.core.objects import PositionColumns
from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.core.results import BatchOutcome, ResultChange, UpdateOutcome
from repro.core.server import PositionOracle, ServerConfig, ServerStats
from repro.faults import ProbeTimeout
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.ties import admit_ids, top_k_rows
from repro.obs import (
    NULL_EVENT_LOG,
    NULL_REGISTRY,
    MetricsRegistry,
    merge_profiles,
)
from repro.runtime import paused_gc
from repro.sharding.backend import ShardBackend, decode_outcome, query_spec
from repro.sharding.router import ShardRouter
from repro.sharding.shardmap import ShardMap
from repro.sharding.worker import WorkerShard

ObjectId = Hashable


class InProcessShard:
    """Shard handle running its backend on the coordinator's thread."""

    def __init__(self, shard_id: int, config: ServerConfig, oracle,
                 metrics_enabled: bool = False, events=None) -> None:
        self.shard_id = shard_id
        self._oracle = oracle
        registry = MetricsRegistry() if metrics_enabled else None
        self.backend = ShardBackend(
            shard_id, config, oracle, metrics=registry, events=events
        )
        self.alive = True

    def call(self, name: str, *args):
        if name == "restore":
            self.backend.restore(args[0], self._oracle)
            return None
        return getattr(self.backend, name)(*args)

    def kill(self) -> None:
        self.alive = False
        self.backend = None  # frozen: the process is "gone"

    def close(self) -> None:
        self.alive = False


class RetiredSlot:
    """Placeholder for a shard id retired by ``remove_shard``.

    Keeps per-shard lists dense (ids never get reused), while any
    attempt to operate on the retired shard fails loudly.
    """

    alive = False

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id

    def call(self, name: str, *args):
        raise RuntimeError(
            f"shard {self.shard_id} was removed and cannot serve {name!r}"
        )

    def kill(self) -> None:  # pragma: no cover - nothing to kill
        pass

    def close(self) -> None:
        pass


class ShardedServer:
    """Coordinator over N cell-owned shards (see module docstring)."""

    def __init__(
        self,
        position_oracle: PositionOracle,
        config: ServerConfig | None = None,
        n_shards: int = 2,
        n_workers: int = 0,
        metrics=None,
        events=None,
        refresh_probes: bool = False,
        shard_ids: Iterable[int] | None = None,
    ) -> None:
        if shard_ids is not None:
            live_ids = tuple(sorted(set(shard_ids)))
            if not live_ids:
                raise ValueError("need at least one shard")
            if any(s < 0 for s in live_ids):
                raise ValueError("shard ids must be non-negative")
            n_shards = live_ids[-1] + 1
        else:
            if n_shards < 1:
                raise ValueError("need at least one shard")
            live_ids = tuple(range(n_shards))
        if n_workers < 0:
            raise ValueError("n_workers must be non-negative")
        self.config = config or ServerConfig()
        #: Allocated slot space: shard ids ever issued.  Retired ids
        #: (``remove_shard``) keep their slot — ids are never reused, so
        #: frozen stats and event streams stay unambiguous.
        self.n_shards = n_shards
        #: Any non-zero worker count runs one process per live shard;
        #: the knob is a mode bit kept numeric for CLI symmetry.
        self.n_workers = len(live_ids) if n_workers else 0
        self._oracle = position_oracle
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.events = NULL_EVENT_LOG if events is None else events
        #: Merge-time exactness mode (docs/SHARDING.md "Refresh
        #: probes"): when on, the cross-shard kNN merge probes boundary
        #: candidates whose held positions could be stale.  Off by
        #: default — the merge is then bit-identical to the historical
        #: behaviour (and to the single server fed the same reports).
        self.refresh_probes = bool(refresh_probes)
        #: Total refresh probes issued (also counted on
        #: ``shard.fanout.refresh_probes`` when metrics are on).
        self.refresh_probe_count = 0
        self._probe_memo: dict[ObjectId, tuple[float, float] | None] = {}
        self.map = ShardMap(live_ids, self.config.grid_m)
        self.router = ShardRouter(self.map, self.config.space)
        space = self.config.space
        self._diameter = math.hypot(space.width, space.height)

        self._homes: dict[ObjectId, int] = {}
        self._home_counts = [0] * n_shards
        self._views: dict[str, Query] = {}
        self._partials: dict[str, dict[int, dict]] = {}
        self._holders: dict[str, set[int]] = {}
        self._dead: set[int] = set()
        self._dead_at: dict[int, float] = {}
        self._retired: set[int] = set(range(n_shards)) - set(live_ids)
        #: Clock of the last ``maybe_rebalance`` action (cooldown input).
        self.last_rebalance_at: float | None = None
        self._clock = 0.0
        self._merged_changes = 0
        #: Degraded-member flags of the last merge, per query id.
        self._merge_degraded: dict[str, frozenset] = {}
        #: Views whose partials changed as a side effect (registration
        #: probes on a shard flipping other local results); drained by
        #: every top-level operation.
        self._dirty: set[str] = set()
        self._stats_cache: dict[int, ServerStats] = {}
        self._metrics_cache: dict[int, dict] = {}
        #: Frozen per-shard profile summaries (kill/close), mirroring
        #: ``_stats_cache`` so ``profile_snapshot`` keeps answering
        #: after workers are gone.
        self._profile_cache: dict[int, dict] = {}
        self._profiling = False
        self._busy = [0.0] * n_shards
        #: Coordinator compute: routing plus merging, the serial part of
        #: the scaling model (benchmarks/test_shards_bench.py).
        self.route_seconds = 0.0
        self.merge_seconds = 0.0

        self._m_migrations = self.metrics.counter("shard.migrations")
        self._m_fanout_reg = self.metrics.counter("shard.fanout.registrations")
        self._m_expansions = self.metrics.counter("shard.fanout.expansions")
        self._m_dead_routed = self.metrics.counter("shard.dead_routed")
        self._m_refresh = self.metrics.counter("shard.fanout.refresh_probes")
        self._m_rebal_checks = self.metrics.counter("shard.rebalance.checks")
        self._m_rebal_grows = self.metrics.counter("shard.rebalance.grows")
        self._m_rebal_shrinks = self.metrics.counter("shard.rebalance.shrinks")
        self._m_rebal_cells = self.metrics.counter(
            "shard.rebalance.moved_cells"
        )
        self._m_rebal_objects = self.metrics.counter(
            "shard.rebalance.moved_objects"
        )
        self._c_updates = [
            self.metrics.counter(f"shard.updates.s{i}") for i in range(n_shards)
        ]
        self._g_objects = [
            self.metrics.gauge(f"shard.objects.s{i}") for i in range(n_shards)
        ]
        self._g_imbalance = self.metrics.gauge("shard.objects.imbalance")
        self._g_dead = self.metrics.gauge("shard.dead")

        self._shards: list = [
            self._make_shard(i) if i in set(live_ids) else RetiredSlot(i)
            for i in range(n_shards)
        ]

    def _make_shard(self, shard_id: int):
        """One fresh shard handle in the cluster's execution mode."""
        if self.n_workers:
            return WorkerShard(
                shard_id, self.config, self._oracle, self.metrics.enabled
            )
        # In-process shards share the coordinator's event log: one
        # causally ordered stream, exactly like the single server.
        return InProcessShard(
            shard_id, self.config, self._oracle, self.metrics.enabled,
            events=self.events,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._homes

    @property
    def object_count(self) -> int:
        return len(self._homes)

    @property
    def query_count(self) -> int:
        return len(self._views)

    @property
    def clock(self) -> float:
        return self._clock

    def queries(self) -> frozenset[Query]:
        return frozenset(self._views.values())

    def shard_of_object(self, oid: ObjectId) -> int:
        return self._homes[oid]

    def dead_shards(self) -> frozenset[int]:
        return frozenset(self._dead)

    def retired_shards(self) -> frozenset[int]:
        return frozenset(self._retired)

    def live_shard_ids(self) -> tuple[int, ...]:
        return tuple(self._live())

    def shard_object_counts(self) -> list[int]:
        return list(self._home_counts)

    def holders_of(self, query_id: str) -> frozenset[int]:
        return frozenset(self._holders[query_id])

    def safe_region_of(self, oid: ObjectId) -> Rect:
        home = self._homes[oid]
        if home in self._dead:
            raise KeyError(f"object {oid!r} is homed on dead shard {home}")
        return self._shards[home].call("safe_region", oid)

    def degraded_objects(self) -> dict[ObjectId, float]:
        merged: dict[ObjectId, float] = {}
        for i in self._live():
            merged.update(self._shards[i].call("info")["degraded"])
        for oid, home in self._homes.items():
            if home in self._dead:
                merged.setdefault(oid, self._dead_at[home])
        return merged

    def shard_busy_seconds(self) -> list[float]:
        """Per-shard compute seconds (dead shards: frozen at kill)."""
        busy = list(self._busy)
        for i in self._live():
            if self._shards[i].alive:
                busy[i] = self._shards[i].call("info")["busy"]
        return busy

    def validate(self) -> None:
        for i in self._live():
            self._shards[i].call("validate")
            info = self._shards[i].call("info")
            expected = sorted(
                (oid for oid, home in self._homes.items() if home == i),
                key=repr,
            )
            assert info["oids"] == expected, f"home table desync on shard {i}"

    def refresh_index_gauges(self) -> None:
        if not self.metrics.enabled:
            return
        live = self._live()
        for i in range(self.n_shards):
            self._g_objects[i].set(self._home_counts[i])
        counts = [self._home_counts[i] for i in live]
        if counts and sum(counts):
            self._g_imbalance.set(max(counts) * len(counts) / sum(counts))
        else:
            # An empty cluster is balanced by definition; a stale gauge
            # here would feed phantom skew to the rebalance policy.
            self._g_imbalance.set(1.0)
        self._g_dead.set(len(self._dead))
        if not self.n_workers:
            for i in live:
                self._shards[i].call("refresh_index_gauges")

    @property
    def stats(self) -> ServerStats:
        """Summed per-shard counters; merged-view result changes.

        Per-message cost accounting survives sharding unchanged:
        ``probes`` and ``safe_region_pushes`` are real messages wherever
        they originate, so the sum is the system's message bill.
        ``result_changes`` counts *merged-view* changes — per-shard
        local flips that cancel out in the merge are not deliverable
        deltas.  ``cpu_seconds`` sums shard compute (wall-clock on a
        multi-core host is the max, not the sum; the shard benchmark
        models that explicitly).
        """
        agg = ServerStats()
        for i in range(self.n_shards):
            shard_stats = self._shard_stats(i)
            for f in _dataclass_fields(ServerStats):
                setattr(
                    agg, f.name,
                    getattr(agg, f.name) + getattr(shard_stats, f.name),
                )
        agg.result_changes = self._merged_changes
        # Merge-time refresh probes are real messages to real clients;
        # they land on the same bill as shard-issued probes so the
        # communication-cost model sees the exactness premium.
        agg.probes += self.refresh_probe_count
        return agg

    def profile_start(self, max_ticks: int | None = None) -> None:
        """Begin a tick-phase profiling session on every live shard.

        Rides the existing op pipe (``profile_start`` is an ordinary
        backend op), so worker mode needs no protocol change.
        """
        self._profiling = True
        for i in self._live():
            if self._shards[i].alive:
                self._shards[i].call("profile_start", max_ticks)

    def profile_stop(self) -> None:
        """End the session (shards go back to the no-op profiler)."""
        self._profiling = False
        for i in self._live():
            if self._shards[i].alive:
                self._shards[i].call("profile_stop")

    def profile_snapshot(self, top_k: int = 10) -> dict:
        """Cluster-wide merged profile, plus per-shard summaries.

        Dead or closed shards answer from the summary frozen at
        kill/close time, exactly like ``stats``.
        """
        snapshots: dict[int, dict] = {}
        for i in range(self.n_shards):
            shard = self._shards[i]
            if i not in self._dead and shard.alive:
                snapshots[i] = shard.call("profile_snapshot", top_k)
            elif i in self._profile_cache:
                snapshots[i] = self._profile_cache[i]
        merged = merge_profiles(snapshots.values())
        merged["shards"] = {
            f"shard{i}": summary for i, summary in snapshots.items()
        }
        return merged

    def shard_metrics_snapshots(self) -> dict[str, dict]:
        """Per-shard metric registries, keyed ``shard<i>``.

        Live shards answer directly; closed or retired shards answer
        from the registry frozen at shutdown/retirement, so an elastic
        run's report still carries every shard that ever served (dead
        shards took their registry with them — nothing to render).
        """
        out = {}
        if not self.metrics.enabled:
            return out
        for i in range(self.n_shards):
            if i in self._dead:
                continue
            if self._shards[i].alive:
                snapshot = self._shards[i].call("metrics_snapshot")
            else:
                snapshot = self._metrics_cache.get(i)
            if snapshot is not None:
                out[f"shard{i}"] = snapshot
        return out

    # ------------------------------------------------------------------
    # Object population
    # ------------------------------------------------------------------
    @paused_gc()
    def bootstrap(
        self,
        objects: PositionColumns | Iterable[tuple[ObjectId, Point]],
        queries: Iterable[Query] = (),
        time: float = 0.0,
    ) -> dict[ObjectId, Rect]:
        """Start monitoring ``objects`` and ``queries`` together.

        The sharded ``DatabaseServer.bootstrap`` (docs/SHARDING.md
        "Registration"): the coordinator sees every exact position
        while routing, so it picks each query's holder shards up front
        — a kNN query's from the exact global ranking — and ships **one
        ``bootstrap`` op per shard** carrying the shard's residents and
        the specs of the queries it keeps.  Each shard evaluates over
        points and derives every first region once; no shard registers
        a query it would be pruned from, and nothing is probed.
        Mid-run registration stays ``register_query``.
        """
        if self._homes or self._views:
            raise RuntimeError("bootstrap must run on an empty cluster")
        queries = list(queries)
        specs = [query_spec(query) for query in queries]  # TypeError early
        if len({spec["query_id"] for spec in specs}) != len(specs):
            raise ValueError("duplicate query ids in bootstrap")
        self._clock = max(self._clock, time)
        self._begin_op()
        start = _time.process_time()
        excluding = frozenset(self._dead)
        if not isinstance(objects, PositionColumns):
            objects = PositionColumns.of(objects)
        given, xs, ys = objects
        del objects
        admit_ids(given, {})
        # In id order: ``_first_bound`` ranks rows by ``(d2, row)``,
        # which is then the ranking key ``(d2, oid)``.
        by_id = sorted(range(len(given)), key=given.__getitem__)
        oids = [given[k] for k in by_id]
        xs = np.asarray(xs, dtype=np.float64)[by_id]
        ys = np.asarray(ys, dtype=np.float64)[by_id]
        cells = self.router.grid.cells_of_xy(xs, ys)
        shards = [self.map.shard_of(cell, excluding) for cell in cells]
        requests: dict[int, tuple] = {
            shard: ([], [], time) for shard in self._live()
        }
        positions = list(zip(xs.tolist(), ys.tolist()))
        for oid, position, shard in zip(oids, positions, shards):
            if oid in self._homes:
                raise KeyError(f"duplicate object {oid!r} in bootstrap")
            self._homes[oid] = shard
            self._home_counts[shard] += 1
            requests[shard][0].append((oid, position))
        if self.refresh_probes:
            # Reported this instant: fresh by definition, so the first
            # merges need no refresh probe.
            self._probe_memo.update(zip(oids, positions))
        for query, spec in zip(queries, specs):
            qid = query.query_id
            if isinstance(query, RangeQuery):
                holders = self.router.shards_for_rect(query.rect, excluding)
            else:
                holders = self.router.shards_for_circle(
                    Circle(
                        query.center,
                        self._first_bound(query, xs, ys, cells, shards),
                    ),
                    excluding,
                )
            self._views[qid] = query
            self._partials[qid] = {}
            self._holders[qid] = set(holders)
            for shard in holders:
                requests[shard][1].append(spec)
            self._m_fanout_reg.inc(len(holders))
        self.route_seconds += _time.process_time() - start

        responses = self._call_shards("bootstrap", requests)

        start = _time.process_time()
        # Handed out in the order the objects were given.
        regions: dict[ObjectId, Rect] = dict.fromkeys(given)
        for shard in sorted(responses):
            regions.update(responses[shard]["regions"])
            for qid, partial in responses[shard]["partials"].items():
                self._partials[qid][shard] = partial
        for query in queries:
            # The first merge is the registration itself, not a result
            # change; the fan-out fixpoint inside is the safety net for
            # a bound the holder choice above did not cover.
            self._remerge(query.query_id, time, outcome=None, count=False)
        self._drain_dirty(time, None)
        self.merge_seconds += _time.process_time() - start
        self.refresh_index_gauges()
        return regions

    def _first_bound(
        self, query: KNNQuery, xs, ys, cells: list, shards: list[int]
    ) -> float:
        """An upper bound on a kNN view's first merged radius.

        The merged radius is the k-th smallest safe-region ``max_dist``
        among the pooled members, and the k exactly-nearest objects are
        always pooled (each is in its home shard's local top-k).  Before
        any region exists, each one's ``max_dist`` is bounded by the
        farthest corner of its grid cell (a region never leaves its
        cell) and by the ring its home shard will cut for it: up to the
        midpoint to the shard's next-ranked resident when the query is
        order-sensitive, up to the shard's local quarantine radius when
        it is not.  The largest of those k bounds covers the radius, so
        every shard the first merge can need is a holder from the
        start.  ``shards`` is each row's home shard.
        """
        center = query.center
        k = query.k
        # Deep enough that each shard's next-ranked residents are
        # usually in view; a shard they are not found on falls back to
        # the cell-corner bound.
        depth = 2 * (k + 1) * len(self._live())
        top = top_k_rows(xs, ys, center.x, center.y, depth)
        if len(top) < k:
            return self._diameter
        dists = [center.distance_to(Point(xs[row], ys[row])) for row in top]
        ranked: dict[int, list[float]] = {}
        for row, dist in zip(top, dists):
            ranked.setdefault(shards[row], []).append(dist)
        cell_rect = self.router.grid.cell_rect
        seen: dict[int, int] = {}
        bound = 0.0
        for row, dist in zip(top[:k], dists):
            shard = shards[row]
            local = ranked[shard]
            rank = seen.get(shard, 0)
            seen[shard] = rank + 1
            reach = cell_rect(cells[row]).max_dist_to_point(center)
            if query.order_sensitive:
                if rank + 1 < len(local):
                    reach = min(reach, (dist + local[rank + 1]) / 2.0)
            elif len(local) > k:
                reach = min(reach, (local[k - 1] + local[k]) / 2.0)
            bound = max(bound, reach)
        return bound

    def load_objects(
        self, positions: Iterable[tuple[ObjectId, Point]], time: float = 0.0
    ) -> dict[ObjectId, Rect]:
        """:meth:`bootstrap` with no queries."""
        return self.bootstrap(positions, (), time)

    # ------------------------------------------------------------------
    # Query registration
    # ------------------------------------------------------------------
    def register_query(self, query: Query, time: float = 0.0) -> UpdateOutcome:
        qid = query.query_id
        if qid in self._views:
            raise ValueError(f"query {qid!r} already registered")
        spec = query_spec(query)  # raises TypeError for extension types
        del spec
        self._clock = max(self._clock, time)
        self._begin_op()
        excluding = frozenset(self._dead)
        if isinstance(query, RangeQuery):
            targets = sorted(self.router.shards_for_rect(query.rect, excluding))
        else:
            # A fresh kNN query has no distance bound yet: only a global
            # evaluation can find the true top-k, so every live shard
            # evaluates once; the bound then prunes the fan-out.
            targets = sorted(self._live())
        self._views[qid] = query
        self._partials[qid] = {}
        self._holders[qid] = set()
        outcome = UpdateOutcome()
        for shard in targets:
            self._register_on(qid, shard, time, outcome)
        # The initial merge is the registration itself, not a result
        # change — mirror the single server, which reports it as a
        # ``ResultChange(qid, None, snapshot)`` without counting it.
        self._dirty.discard(qid)
        self._remerge(qid, time, outcome=None, count=False)
        if isinstance(query, KNNQuery):
            self._prune(qid)
        outcome.changes.insert(0, ResultChange(
            qid, None, query.result_snapshot(),
            degraded=self._degraded_members(qid),
        ))
        self._drain_dirty(time, outcome)
        return outcome

    def deregister_query(self, query: Query) -> None:
        qid = query.query_id
        if qid not in self._views:
            raise KeyError(f"query {qid!r} is not registered")
        for shard in sorted(self._holders[qid]):
            if shard not in self._dead:
                self._shards[shard].call("deregister", qid)
        del self._views[qid]
        del self._partials[qid]
        del self._holders[qid]

    # ------------------------------------------------------------------
    # Location updates
    # ------------------------------------------------------------------
    def handle_location_update(
        self, oid: ObjectId, position: Point, time: float = 0.0
    ) -> UpdateOutcome:
        self._clock = max(self._clock, time)
        self._begin_op()
        start = _time.process_time()
        plan = self._plan_report(oid, position)
        per_shard: dict[int, list[tuple]] = {}
        for shard, op in plan:
            per_shard.setdefault(shard, []).append(op)
        self.route_seconds += _time.process_time() - start
        responses = self._dispatch(per_shard, time)
        start = _time.process_time()
        outcome = UpdateOutcome()
        affected, outcomes = self._absorb_responses(responses, plan)
        for shard_outcome in outcomes:
            self._fold_outcome(outcome, shard_outcome)
        for qid in sorted(affected):
            self._dirty.discard(qid)
            self._remerge(qid, time, outcome)
        self._drain_dirty(time, outcome)
        self.merge_seconds += _time.process_time() - start
        return outcome

    def handle_location_updates(
        self, reports: Iterable[tuple[ObjectId, Point]], time: float = 0.0
    ) -> BatchOutcome:
        """Batched same-tick reports, mirroring the single server's order.

        The deterministic (destination cell, submission index) order —
        with the duplicate-id fallback to plain submission order — is
        computed coordinator-side, then split into per-shard op streams
        that preserve each shard's subsequence.  Shard states are
        therefore identical whether the streams run interleaved
        in-process or concurrently in workers: shards share no state,
        only the coordinator's merge joins them.
        """
        self._clock = max(self._clock, time)
        self._begin_op()
        start = _time.process_time()
        reports = list(reports)
        oids = [oid for oid, _ in reports]
        if len(set(oids)) != len(oids):
            ordered: Iterable[int] = range(len(reports))
            cells: list | None = None
        else:
            cells = self.router.grid.cells_of_points(
                [position for _, position in reports]
            )
            ordered = sorted(
                range(len(reports)), key=lambda i: (cells[i], i)
            )
        plan: list[tuple[int, tuple]] = []
        for i in ordered:
            oid, position = reports[i]
            plan.extend(self._plan_report(
                oid, position, cells[i] if cells is not None else None
            ))
        per_shard: dict[int, list[tuple]] = {}
        for shard, op in plan:
            per_shard.setdefault(shard, []).append(op)
        self.route_seconds += _time.process_time() - start

        responses = self._dispatch(per_shard, time)

        start = _time.process_time()
        batch = BatchOutcome()
        affected, outcomes = self._absorb_responses(responses, plan)
        for (_, op), shard_outcome in zip(plan, outcomes):
            # Decoded outcomes carry no shard-local deltas: the batch's
            # ``changes`` are the merged-view deltas added below.
            batch.merge(op[1], shard_outcome)
        merged = UpdateOutcome()
        for qid in sorted(affected):
            self._dirty.discard(qid)
            self._remerge(qid, time, merged)
        self._drain_dirty(time, merged)
        batch.changes.extend(merged.changes)
        batch.regions.update(merged.probed)
        self.merge_seconds += _time.process_time() - start
        self.refresh_index_gauges()
        return batch

    # ------------------------------------------------------------------
    # Failure drill
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: int, time: float | None = None) -> UpdateOutcome:
        """Hard-stop one shard and contain the damage (docs/SHARDING.md).

        The dead shard's last known partials stay in every merge as
        frozen, ``degraded``-flagged members — conservative, never
        silently dropped.  Routing falls over to each cell's
        rendezvous runner-up, queries are re-registered on the shards
        adopting territory, and each frozen object heals the moment it
        next reports (it migrates to its fall-over home).
        """
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"no such shard: {shard_id}")
        if shard_id in self._retired:
            raise ValueError(
                f"shard {shard_id} was removed and cannot be killed"
            )
        if shard_id in self._dead:
            raise ValueError(f"shard {shard_id} is already dead")
        if len(self._live()) == 1:
            raise ValueError("cannot kill the last live shard")
        now = self._clock if time is None else max(time, self._clock)
        self._clock = now
        self._begin_op()
        # Freeze the accounting before the state disappears.
        self._stats_cache[shard_id] = self._shards[shard_id].call("stats")
        self._busy[shard_id] = self._shards[shard_id].call("info")["busy"]
        if self._profiling:
            self._profile_cache[shard_id] = self._shards[shard_id].call(
                "profile_snapshot", 10
            )
        self._dead.add(shard_id)
        self._dead_at[shard_id] = now
        self._shards[shard_id].kill()
        if self.events.enabled:
            self.events.set_time(now)
            self.events.emit("shard_killed", shard=shard_id)
        excluding = frozenset(self._dead)
        outcome = UpdateOutcome()
        for qid in sorted(self._views):
            self._holders[qid].discard(shard_id)
            view = self._views[qid]
            if isinstance(view, RangeQuery):
                needed = self.router.shards_for_rect(view.rect, excluding)
            else:
                radius = view.radius if view.radius > 0 else self._diameter
                needed = self.router.shards_for_circle(
                    Circle(view.center, radius), excluding
                )
            for shard in sorted(needed - self._holders[qid]):
                self._register_on(qid, shard, now, outcome)
            self._dirty.discard(qid)
            self._remerge(qid, now, outcome)
        self._drain_dirty(now, outcome)
        self.refresh_index_gauges()
        return outcome

    # ------------------------------------------------------------------
    # Elastic topology
    # ------------------------------------------------------------------
    def add_shard(self, time: float | None = None) -> UpdateOutcome:
        """Grow the cluster by one shard, live (docs/SHARDING.md).

        Rendezvous hashing makes growth cheap: only the cells the new
        shard *wins* change owner — ``1/(N+1)`` of the grid in
        expectation — and :meth:`ShardMap.moved_cells` lists exactly
        those.  Query copies register on the new shard first (so
        migrated objects are evaluated on arrival, exactly like an
        update-path migration), then each moved object replays as an
        evict on its old home plus an add on the new shard.  The home
        table tracks every move, so ``validate()`` holds mid- and
        post-migration.  The new shard's id is ``n_shards - 1`` after
        the call; ids are never reused.

        Resharding requires a healthy cluster: a dead shard's frozen
        objects cannot be migrated, so heal (or drill) first.
        """
        if self._dead:
            raise ValueError(
                "cannot reshard with dead shards present: "
                f"{sorted(self._dead)} must heal first"
            )
        now = self._clock if time is None else max(time, self._clock)
        self._clock = now
        self._begin_op()
        new_id = self.n_shards
        new_map = self.map.with_shard(new_id)
        moved = self.map.moved_cells(new_map)
        # Gather the moving residents while the old owners still answer.
        by_old: dict[int, list] = {}
        for cell in moved:
            by_old.setdefault(self.map.shard_of(cell), []).append(cell)
        migrating: list[tuple] = []
        for old in sorted(by_old):
            resp = self._shards[old].call("residents", by_old[old])
            migrating.extend(
                (oid, (x, y), old, new_id) for oid, x, y in resp["rows"]
            )
        # Allocate the slot and spawn the shard (worker mode: a fresh
        # process) before any state references the new id.
        self._shards.append(self._make_shard(new_id))
        self._busy.append(0.0)
        self._home_counts.append(0)
        self._c_updates.append(
            self.metrics.counter(f"shard.updates.s{new_id}")
        )
        self._g_objects.append(self.metrics.gauge(f"shard.objects.s{new_id}"))
        self.n_shards = new_id + 1
        if self.n_workers:
            self.n_workers += 1
        self.map = new_map
        self.router = ShardRouter(new_map, self.config.space)
        outcome = UpdateOutcome()
        self._cover_queries(now, outcome)
        self._migrate(migrating, now, outcome)
        self._m_rebal_cells.inc(len(moved))
        self._m_rebal_objects.inc(len(migrating))
        if self.events.enabled:
            self.events.set_time(now)
            self.events.emit(
                "shard_added", shard=new_id, moved_cells=len(moved),
                moved_objects=len(migrating),
                consistent=self._consistent_homes(),
            )
        self.refresh_index_gauges()
        return outcome

    def remove_shard(
        self, shard_id: int, time: float | None = None
    ) -> UpdateOutcome:
        """Retire one live shard, migrating its objects off first.

        The inverse drill of :meth:`add_shard`: exactly the retiring
        shard's cells change owner (each to its rendezvous runner-up),
        adopting shards get query copies before the objects arrive, and
        every object replays as evict+add so intermediate states stay
        ``validate()``-clean.  The slot is then frozen — stats, busy
        time, metrics, and profile answer from caches exactly like a
        closed cluster — and the id is never reused.
        """
        if not 0 <= shard_id < self.n_shards:
            raise ValueError(f"no such shard: {shard_id}")
        if shard_id in self._retired:
            raise ValueError(f"shard {shard_id} is already removed")
        if self._dead:
            raise ValueError(
                "cannot reshard with dead shards present: "
                f"{sorted(self._dead)} must heal first"
            )
        if len(self._live()) == 1:
            raise ValueError("cannot remove the last live shard")
        now = self._clock if time is None else max(time, self._clock)
        self._clock = now
        self._begin_op()
        new_map = self.map.without_shard(shard_id)
        moved = self.map.cells_of(shard_id)
        # Every resident leaves, including any a probe moved into a cell
        # this shard does not own.
        resp = self._shards[shard_id].call("residents", None)
        cells = self.router.grid.cells_of_points(
            [Point(x, y) for _, x, y in resp["rows"]]
        )
        migrating = [
            (oid, (x, y), shard_id, new_map.shard_of(cell))
            for (oid, x, y), cell in zip(resp["rows"], cells)
        ]
        self.map = new_map
        self.router = ShardRouter(new_map, self.config.space)
        outcome = UpdateOutcome()
        self._cover_queries(now, outcome)
        self._migrate(migrating, now, outcome)
        # Drop the retiree's query copies; its partials are already
        # empty (every resident was just evicted), so merges only lose
        # a zero contribution.
        for qid in sorted(self._views):
            if shard_id in self._holders[qid]:
                self._shards[shard_id].call("deregister", qid)
                self._holders[qid].discard(shard_id)
                self._partials[qid].pop(shard_id, None)
                self._dirty.add(qid)
        self._drain_dirty(now, outcome)
        # Freeze the slot's accounting, then retire it for good.
        shard = self._shards[shard_id]
        self._stats_cache[shard_id] = shard.call("stats")
        self._busy[shard_id] = shard.call("info")["busy"]
        snapshot = shard.call("metrics_snapshot")
        if snapshot is not None:
            self._metrics_cache[shard_id] = snapshot
        if self._profiling:
            self._profile_cache[shard_id] = shard.call("profile_snapshot", 10)
        shard.close()
        self._shards[shard_id] = RetiredSlot(shard_id)
        self._retired.add(shard_id)
        if self.n_workers:
            self.n_workers -= 1
        self._m_rebal_cells.inc(len(moved))
        self._m_rebal_objects.inc(len(migrating))
        if self.events.enabled:
            self.events.set_time(now)
            self.events.emit(
                "shard_removed", shard=shard_id, moved_cells=len(moved),
                moved_objects=len(migrating),
                consistent=self._consistent_homes(),
            )
        self.refresh_index_gauges()
        return outcome

    def maybe_rebalance(self, policy, time: float | None = None):
        """Apply one step of an occupancy-driven rebalance policy.

        ``policy`` is a :class:`repro.sharding.rebalance.RebalancePolicy`
        (or anything with its ``decide`` signature).  The decision input
        is the live per-shard object census — the same numbers behind
        the ``shard.objects.imbalance`` gauge.  Returns the topology
        change's :class:`UpdateOutcome`, or ``None`` when the policy
        holds still.  Never acts on an unhealthy cluster.
        """
        now = self._clock if time is None else max(time, self._clock)
        self._m_rebal_checks.inc()
        if self._dead:
            return None
        counts = {i: self._home_counts[i] for i in self._live()}
        action = policy.decide(counts, now, self.last_rebalance_at)
        if action is None:
            return None
        if action == "grow":
            outcome = self.add_shard(now)
            detail: dict = {"action": "grow", "shard": self.n_shards - 1}
            self._m_rebal_grows.inc()
        else:
            kind, victim = action
            if kind != "shrink":
                raise ValueError(f"unknown rebalance action {action!r}")
            outcome = self.remove_shard(victim, now)
            detail = {"action": "shrink", "shard": victim}
            self._m_rebal_shrinks.inc()
        self.last_rebalance_at = now
        if self.events.enabled:
            self.events.set_time(now)
            self.events.emit("rebalance", **detail)
        return outcome

    def _cover_queries(self, time: float, outcome: UpdateOutcome) -> None:
        """Register every view on the shards its coverage now needs."""
        excluding = frozenset(self._dead)
        for qid in sorted(self._views):
            view = self._views[qid]
            if isinstance(view, RangeQuery):
                needed = self.router.shards_for_rect(view.rect, excluding)
            else:
                radius = view.radius if view.radius > 0 else self._diameter
                needed = self.router.shards_for_circle(
                    Circle(view.center, radius), excluding
                )
            for shard in sorted(needed - self._holders[qid]):
                self._register_on(qid, shard, time, outcome)
                self._dirty.add(qid)

    def _migrate(
        self, rows: list[tuple], time: float, outcome: UpdateOutcome
    ) -> None:
        """Replay ``(oid, pos, old, target)`` moves as evict+add pairs."""
        plan: list[tuple[int, tuple]] = []
        for oid, pos, old, target in rows:
            plan.append((old, ("evict", oid)))
            plan.append((target, ("add", oid, pos)))
            self._homes[oid] = target
            self._home_counts[old] -= 1
            self._home_counts[target] += 1
        per_shard: dict[int, list[tuple]] = {}
        for shard, op in plan:
            per_shard.setdefault(shard, []).append(op)
        responses = self._dispatch(per_shard, time)
        affected, outcomes = self._absorb_responses(responses, plan)
        for shard_outcome in outcomes:
            self._fold_outcome(outcome, shard_outcome)
        for qid in sorted(affected):
            self._dirty.discard(qid)
            self._remerge(qid, time, outcome)
        self._drain_dirty(time, outcome)

    def _consistent_homes(self) -> bool:
        """Does every live shard's object table match the home table?

        The audit behind the ``consistent`` flag on reshard events —
        ``repro diagnose`` treats a ``false`` as a violation (a split
        or torn home table after a migration).
        """
        for i in self._live():
            if not self._shards[i].alive:
                continue
            expected = sorted(
                (oid for oid, home in self._homes.items() if home == i),
                key=repr,
            )
            if self._shards[i].call("info")["oids"] != expected:
                return False
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the shards down, freezing their final stats first.

        ``stats`` / ``shard_busy_seconds`` / ``shard_metrics_snapshots``
        keep answering from the frozen values, so a report can be
        assembled after the worker processes are gone.
        """
        for i in self._live():
            shard = self._shards[i]
            if not shard.alive:
                continue
            self._stats_cache[i] = shard.call("stats")
            self._busy[i] = shard.call("info")["busy"]
            snapshot = shard.call("metrics_snapshot")
            if snapshot is not None:
                self._metrics_cache[i] = snapshot
            if self._profiling:
                self._profile_cache[i] = shard.call("profile_snapshot", 10)
            shard.close()

    def __enter__(self) -> "ShardedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _live(self) -> list[int]:
        return [
            i for i in range(self.n_shards)
            if i not in self._dead and i not in self._retired
        ]

    def _begin_op(self) -> None:
        """Reset per-operation merge state (the refresh-probe memo)."""
        if self.refresh_probes:
            self._probe_memo.clear()

    def _shard_stats(self, shard_id: int) -> ServerStats:
        if shard_id in self._dead or not self._shards[shard_id].alive:
            return self._stats_cache.get(shard_id, ServerStats())
        return self._shards[shard_id].call("stats")

    def _plan_report(
        self, oid: ObjectId, position: Point, cell=None
    ) -> list[tuple[int, tuple]]:
        """The per-shard ops one report expands to; updates the home table.

        ``cell`` short-circuits the cell lookup when the batch path has
        already computed it for the deterministic ordering.
        """
        excluding = frozenset(self._dead)
        if cell is not None:
            target = self.map.shard_of(cell, excluding)
        else:
            target = self.router.shard_for_point(position, excluding)
        home = self._homes.get(oid)
        pos = (position.x, position.y)
        if self.refresh_probes:
            # A position reported this operation is fresh by definition:
            # pre-seeding the memo spares the merge a probe round trip.
            self._probe_memo[oid] = pos
        self._c_updates[target].inc()
        if home is None or home == target:
            # Unknown ids ride the update op: the owning shard applies
            # its configured raise/drop policy and does the counting.
            return [(target, ("update", oid, pos))]
        self._m_migrations.inc()
        ops: list[tuple[int, tuple]] = []
        if home in self._dead:
            self._m_dead_routed.inc()
        else:
            ops.append((home, ("evict", oid)))
        ops.append((target, ("add", oid, pos)))
        self._homes[oid] = target
        self._home_counts[home] -= 1
        self._home_counts[target] += 1
        return ops

    def _dispatch(
        self, per_shard: dict[int, list[tuple]], time: float
    ) -> dict[int, dict]:
        """Run each shard's op stream; workers run them concurrently."""
        return self._call_shards(
            "batch", {shard: (ops, time) for shard, ops in per_shard.items()}
        )

    def _call_shards(
        self, op: str, requests: dict[int, tuple]
    ) -> dict[int, dict]:
        """One ``op`` per shard in ``requests``; workers run concurrently.

        A request to a single shard — a closed-loop report that stays
        home, the usual case — is a plain synchronous ``call``.
        """
        if not self.n_workers or len(requests) == 1:
            return {
                shard: self._shards[shard].call(op, *args)
                for shard, args in sorted(requests.items())
            }
        from multiprocessing.connection import wait

        pending: dict = {}
        for shard, args in sorted(requests.items()):
            self._shards[shard].send_op(op, *args)
            pending[self._shards[shard].conn] = shard
        responses: dict[int, dict] = {}
        while pending:
            for conn in wait(list(pending)):
                shard = pending[conn]
                done = self._shards[shard].service()
                if done is not None:
                    responses[shard] = done[1]
                    del pending[conn]
        return responses

    def _absorb_responses(
        self, responses: dict[int, dict], plan: list[tuple[int, tuple]]
    ) -> tuple[set[str], list[UpdateOutcome]]:
        """Store refreshed partials and busy time; decode the outcomes.

        Returns the affected qids and one decoded outcome per ``plan``
        op, in plan order (each shard answers its ops in order).
        """
        affected: set[str] = set()
        frames = {}
        for shard, resp in responses.items():
            self._busy[shard] = resp["busy"]
            frames[shard] = iter(resp["outcomes"])
            for qid, partial in resp["partials"].items():
                if qid in self._partials:
                    self._partials[qid][shard] = partial
                    affected.add(qid)
        return affected, [
            decode_outcome(next(frames[shard])) for shard, _ in plan
        ]

    @staticmethod
    def _fold_outcome(into: UpdateOutcome, outcome: UpdateOutcome) -> None:
        if outcome.safe_region is not None:
            into.safe_region = outcome.safe_region
        into.probed.update(outcome.probed)
        for missed in outcome.missed:
            if missed not in into.missed:
                into.missed.append(missed)
        into.queries_checked += outcome.queries_checked
        into.queries_reevaluated += outcome.queries_reevaluated

    def _register_on(
        self, qid: str, shard: int, time: float,
        outcome: UpdateOutcome | None,
    ) -> None:
        spec = query_spec(self._views[qid])
        resp = self._shards[shard].call("register", spec, time)
        self._holders[qid].add(shard)
        self._partials[qid][shard] = resp["partial"]
        for other, partial in resp["partials"].items():
            if other != qid and other in self._partials:
                self._partials[other][shard] = partial
                self._dirty.add(other)
        self._m_fanout_reg.inc()
        if outcome is not None:
            self._fold_outcome(outcome, decode_outcome(resp["outcome"]))

    def _drain_dirty(
        self, time: float, outcome: UpdateOutcome | None
    ) -> None:
        """Remerge views whose partials changed as side effects.

        Remerging can register queries on further shards (fan-out
        expansion), whose evaluation probes can dirty yet more views;
        registrations are sticky and per-(query, shard) unique, so the
        drain terminates.
        """
        while self._dirty:
            qid = min(self._dirty)
            self._dirty.discard(qid)
            if qid in self._views:
                self._remerge(qid, time, outcome)

    def _prune(self, qid: str) -> None:
        """Drop holders outside a kNN view's conservative bound.

        Sound because the bound circle covers every cell that can hold
        a top-k member (docs/SHARDING.md); the expansion in ``_remerge``
        re-registers a pruned shard the moment the bound grows back
        over its territory.  One-shot at registration — no churn.
        """
        view = self._views[qid]
        if view.radius <= 0 or view.radius >= self._diameter:
            return
        excluding = frozenset(self._dead)
        needed = self.router.shards_for_circle(
            Circle(view.center, view.radius), excluding
        )
        for shard in sorted(self._holders[qid] - needed):
            self._shards[shard].call("deregister", qid)
            self._holders[qid].discard(shard)
            self._partials[qid].pop(shard, None)

    def _degraded_members(self, qid: str) -> tuple:
        view = self._views[qid]
        flagged = self._merge_degraded.get(qid, frozenset())
        return tuple(sorted(
            (oid for oid in view.results if oid in flagged), key=repr
        ))

    def _remerge(
        self, qid: str, time: float, outcome: UpdateOutcome | None,
        count: bool = True,
    ) -> None:
        """Recompute one merged view from current partials.

        For kNN views, runs the fan-out fixpoint: after each merge the
        conservative bound may cover cells of non-holders; those shards
        are registered (their registration evaluates local objects) and
        the merge repeats.  The bound only shrinks as holders join, so
        the loop visits each shard at most once.
        """
        view = self._views[qid]
        before = view.result_snapshot()
        for _ in range(self.n_shards + 1):
            degraded = self._recompute_view(qid)
            if not isinstance(view, KNNQuery):
                break
            radius = view.radius if view.radius > 0 else self._diameter
            needed = self.router.shards_for_circle(
                Circle(view.center, radius), frozenset(self._dead)
            )
            missing = sorted(needed - self._holders[qid])
            if not missing:
                break
            for shard in missing:
                self._register_on(qid, shard, time, outcome)
            self._m_expansions.inc(len(missing))
        self._merge_degraded[qid] = frozenset(degraded)
        after = view.result_snapshot()
        if outcome is not None:
            outcome.changes.append(
                ResultChange(qid, before, after, degraded=degraded)
            )
        if count and before != after:
            self._merged_changes += 1

    def _recompute_view(self, qid: str) -> tuple:
        """One merge pass; returns the degraded-member flags."""
        view = self._views[qid]
        parts = self._partials[qid]
        if isinstance(view, RangeQuery):
            merged: set = set()
            degraded: set = set()
            for shard in sorted(parts):
                partial = parts[shard]
                dead = shard in self._dead
                flagged = set(partial["degraded"])
                for oid in partial["results"]:
                    if dead and self._homes.get(oid, shard) != shard:
                        continue  # re-homed: the live shard answers now
                    merged.add(oid)
                    if dead or oid in flagged:
                        degraded.add(oid)
            view.results = merged
            return tuple(sorted(degraded & merged, key=repr))

        pool: dict = {}
        flagged_src: dict = {}
        # Live rows first: a frozen row must never shadow a live one.
        for shard in sorted(parts, key=lambda s: (s in self._dead, s)):
            partial = parts[shard]
            dead = shard in self._dead
            flagged = set(partial["degraded"])
            for row in partial["rows"]:
                oid = row[0]
                if oid in pool:
                    continue
                if dead and self._homes.get(oid, shard) != shard:
                    continue
                pool[oid] = row
                flagged_src[oid] = dead or oid in flagged
        # Rows in id order, so ``top_k_rows``'s ``(d2, row)`` is the
        # ranking key ``(d2, oid)`` (repro.geometry.ties).
        rows = [pool[oid] for oid in sorted(pool)]
        bounds = sorted(r[3] for r in rows)
        if len(bounds) >= view.k:
            bound = bounds[view.k - 1]
        else:
            bound = self._diameter
        xs = [r[1] for r in rows]
        ys = [r[2] for r in rows]
        if self.refresh_probes and rows:
            self._refresh_rows(rows, xs, ys, bound)
        top = top_k_rows(xs, ys, view.center.x, view.center.y, view.k)
        view.results = [rows[i][0] for i in top]
        # The merged radius stays the conservative k-th ``max_dist``
        # even when probes tightened the ranking: the fan-out expansion
        # must cover every object that *could* enter the top-k without
        # reporting, which fresh point positions cannot bound.
        view.radius = bound
        return tuple(sorted(
            (oid for oid in view.results if flagged_src.get(oid)), key=repr
        ))

    def _refresh_rows(
        self, rows: list, xs: list, ys: list, bound: float
    ) -> None:
        """Swap held coordinates for probed ones on boundary candidates.

        Exactness (docs/SHARDING.md "Refresh probes"): ``bound`` is the
        k-th smallest ``max_dist``, so k candidates have true distance
        ≤ ``bound``; any candidate whose safe-region ``min_dist``
        exceeds it cannot belong to the true top-k and needs no probe.
        Probing every remaining candidate and re-ranking by live
        positions therefore reproduces the single server's answer.
        Probes are memoised per top-level operation (and pre-seeded
        with this batch's reported positions), so only genuinely stale
        boundary candidates cost a message; a probe timeout falls back
        to the held row — conservative, never worse than before.
        """
        memo = self._probe_memo
        for i, row in enumerate(rows):
            if len(row) < 5 or row[4] > bound:
                continue
            oid = row[0]
            if oid in memo:
                fresh = memo[oid]
            else:
                self._m_refresh.inc()
                self.refresh_probe_count += 1
                try:
                    p = self._oracle(oid)
                except ProbeTimeout:
                    fresh = None
                else:
                    fresh = (p.x, p.y)
                memo[oid] = fresh
            if fresh is not None:
                xs[i] = fresh[0]
                ys[i] = fresh[1]

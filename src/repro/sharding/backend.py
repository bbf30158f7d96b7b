"""One shard's server plus the operation surface the coordinator drives.

A shard is a complete :class:`~repro.core.server.DatabaseServer` over
the *full* workspace geometry (same ``grid_m``, same space) that happens
to hold only the objects homed to its cells and copies of the queries
whose quarantine areas overlap its territory.  Safe regions are clipped
to one grid cell and cells are atomically owned, so the shard has every
fact it needs to maintain its local results — "dumb shards, smart
router" (docs/SHARDING.md).

:class:`ShardBackend` implements the op vocabulary once; the in-process
mode calls it directly and the ``multiprocessing`` worker
(:mod:`repro.sharding.worker`) hosts one behind a pipe.  Keeping a
single implementation is what makes the two modes behave identically
per shard — down to the frames: both modes answer with the same
plain-tuple outcomes (:func:`encode_outcome`), which the coordinator
decodes in one place (:func:`decode_outcome`).
"""

from __future__ import annotations

import gc
import time as _time
from array import array
from typing import Hashable

from repro.core.objects import PositionColumns
from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.core.results import UpdateOutcome
from repro.core.server import DatabaseServer, ServerConfig
from repro.geometry.point import Point
from repro.geometry.rect import Rect

ObjectId = Hashable


def _bounds(rect: Rect) -> tuple[float, float, float, float]:
    return (rect.min_x, rect.min_y, rect.max_x, rect.max_y)


def encode_outcome(outcome: UpdateOutcome) -> tuple:
    """One op's outcome as a flat frame of built-in values.

    ``(region, probed, missed, queries_checked, queries_reevaluated)``:
    the updater's region bounds (or ``None``), an ``(oid, bounds)`` pair
    per probed object, the missed ids and the two counts.  The shard's
    ``changes`` stay behind — their snapshots are this shard's *local*
    results, which the coordinator replaces with merged-view deltas
    (docs/SHARDING.md "What a sharded report costs").
    """
    region = outcome.safe_region
    return (
        None if region is None else _bounds(region),
        tuple(
            (oid, _bounds(probed)) for oid, probed in outcome.probed.items()
        ),
        tuple(outcome.missed),
        outcome.queries_checked,
        outcome.queries_reevaluated,
    )


def decode_outcome(frame: tuple) -> UpdateOutcome:
    """The :class:`UpdateOutcome` an :func:`encode_outcome` frame carries
    (with no ``changes`` — see there)."""
    region, probed, missed, checked, reevaluated = frame
    return UpdateOutcome(
        safe_region=None if region is None else Rect(*region),
        probed={oid: Rect(*bounds) for oid, bounds in probed},
        missed=list(missed),
        queries_checked=checked,
        queries_reevaluated=reevaluated,
    )


def query_spec(query: Query) -> dict:
    """A picklable description of ``query`` for cross-process registration.

    Only the built-in query types ship across shard boundaries; an
    extension query would need its own spec round-trip.
    """
    if isinstance(query, RangeQuery):
        return {
            "type": "range",
            "query_id": query.query_id,
            "rect": (
                query.rect.min_x, query.rect.min_y,
                query.rect.max_x, query.rect.max_y,
            ),
        }
    if isinstance(query, KNNQuery):
        return {
            "type": "knn",
            "query_id": query.query_id,
            "center": (query.center.x, query.center.y),
            "k": query.k,
            "order_sensitive": query.order_sensitive,
        }
    raise TypeError(
        f"sharded mode cannot route query type {type(query).__name__}"
    )


def query_from_spec(spec: dict) -> Query:
    """A fresh (empty-result) query built from :func:`query_spec` output."""
    if spec["type"] == "range":
        return RangeQuery(Rect(*spec["rect"]), query_id=spec["query_id"])
    if spec["type"] == "knn":
        cx, cy = spec["center"]
        return KNNQuery(
            Point(cx, cy), spec["k"],
            order_sensitive=spec["order_sensitive"],
            query_id=spec["query_id"],
        )
    raise TypeError(f"unknown query spec type {spec['type']!r}")


class ShardBackend:
    """The per-shard op surface (see module docstring)."""

    def __init__(
        self,
        shard_id: int,
        config: ServerConfig,
        probe,
        metrics=None,
        events=None,
    ) -> None:
        self.shard_id = shard_id
        self.registry = metrics
        self.server = DatabaseServer(
            probe, config, metrics=metrics, events=events
        )
        self._queries: dict[str, Query] = {}
        #: CPU seconds spent inside ops (``time.process_time``) — the
        #: shard's share of the critical path in the scaling model.
        #: Process CPU time is immune to timesharing with sibling
        #: workers and accrues ~nothing while blocked on a probe round
        #: trip, so no pipe-wait correction is needed.
        self.busy_seconds = 0.0

    # -- op surface ----------------------------------------------------
    def bootstrap(
        self,
        pairs: list[tuple[ObjectId, tuple[float, float]]],
        specs: list[dict],
        time: float,
    ) -> dict:
        """Start-up: this shard's residents and the queries it keeps.

        One ``DatabaseServer.bootstrap`` pass — local evaluation over
        exact points, every first region derived once — answering with
        the regions and this shard's partial of every query.
        """
        start = _time.process_time()
        queries = [query_from_spec(spec) for spec in specs]
        regions = self.server.bootstrap(
            PositionColumns(
                [oid for oid, _ in pairs],
                array("d", [x for _, (x, _) in pairs]),
                array("d", [y for _, (_, y) in pairs]),
            ),
            queries, time,
        )
        partials = {}
        for query in queries:
            self._queries[query.query_id] = query
            partials[query.query_id] = self._partial(query)
        self.busy_seconds += _time.process_time() - start
        return {"regions": dict(regions.items()), "partials": partials}

    def register(self, spec: dict, time: float) -> dict:
        start = _time.process_time()
        query = query_from_spec(spec)
        outcome = self.server.register_query(query, time)
        self._queries[query.query_id] = query
        # Evaluation probes can flip *other* local queries (a probe may
        # catch an object outside its safe region); their partials must
        # reach the coordinator too, or the merged views go stale.
        touched = set(outcome.probed) | set(outcome.missed)
        partials = self.query_partials(sorted(self._affected_queries(
            touched, {change.query_id for change in outcome.changes}
        )))
        partial = partials.pop(query.query_id, None)
        if partial is None:
            partial = self._partial(query)
        self.busy_seconds += _time.process_time() - start
        return {
            "outcome": encode_outcome(outcome),
            "partial": partial,
            "partials": partials,
        }

    def deregister(self, query_id: str) -> None:
        query = self._queries.pop(query_id, None)
        if query is not None:
            self.server.deregister_query(query)

    def batch(self, ops: list[tuple], time: float) -> dict:
        """Run a sequence of update/add/evict ops, in the given order.

        Returns per-op outcome frames (in order, see
        :func:`encode_outcome`), the refreshed partials of every query
        the ops may have touched, and the compute seconds the batch cost
        this shard.

        The ops run one by one through the server's per-report entry
        points: the coordinator needs per-op outcomes.
        """
        start = _time.process_time()
        outcomes = []
        reevaluated: set[str] = set()
        touched: set[ObjectId] = set()
        # One profiled tick per batch op: every per-op phase nests under
        # it (per-op auto-roots defer to the open tick).
        profiler = self.server.profiler
        owns_tick = profiler.enabled and profiler.tick_begin()
        try:
            for op in ops:
                kind, oid = op[0], op[1]
                if kind == "update":
                    outcome = self.server.handle_location_update(
                        oid, Point(*op[2]), time
                    )
                elif kind == "add":
                    outcome = self.server.add_object(oid, Point(*op[2]), time)
                elif kind == "evict":
                    outcome = self.server.evict_object(oid, time)
                else:
                    raise ValueError(f"unknown shard op {kind!r}")
                outcomes.append(encode_outcome(outcome))
                reevaluated.update(
                    change.query_id for change in outcome.changes
                )
                touched.add(oid)
                touched.update(outcome.probed)
                touched.update(outcome.missed)
        finally:
            if owns_tick:
                # Updates and adds are both location reports (a migrated
                # report arrives as evict-on-old + add-on-new), so the
                # profiled report count reconciles with the
                # coordinator's ``location_updates`` sum.
                profiler.tick_end(
                    sum(1 for op in ops if op[0] in ("update", "add"))
                )
        partials = self.query_partials(
            sorted(self._affected_queries(touched, reevaluated))
        )
        self.busy_seconds += _time.process_time() - start
        return {
            "outcomes": outcomes,
            "partials": partials,
            "busy": self.busy_seconds,
        }

    def residents(self, cells: list[tuple] | None) -> dict:
        """``(oid, x, y)`` rows of the objects resident in ``cells``.

        The migration work-list of an elastic topology change: the
        coordinator asks the old owner which of its objects sit in the
        moved cells, then replays them as evict+add pairs.  One pass
        over the object table reads each object's held cell (its
        ``cell`` column), and rows come back in (cell, object id) order
        so the migration op stream is deterministic.  ``None`` asks for
        every resident: a retiring shard also holds objects a probe
        placed in cells it does not own.
        """
        wanted = None if cells is None else {tuple(cell) for cell in cells}
        table = self.server._objects
        held = sorted(
            (table.cell[row], repr(oid), oid, row)
            for oid, row in table.row_items()
            if wanted is None or table.cell[row] in wanted
        )
        return {
            "rows": [(oid, table.x[row], table.y[row]) for *_, oid, row in held]
        }

    def query_partials(self, query_ids: list[str]) -> dict:
        return {
            qid: self._partial(self._queries[qid])
            for qid in query_ids
            if qid in self._queries
        }

    def stats(self):
        return self.server.stats

    def metrics_snapshot(self) -> dict | None:
        if self.registry is None:
            return None
        return self.registry.to_dict()

    def info(self) -> dict:
        return {
            "objects": self.server.object_count,
            "queries": self.server.query_count,
            "clock": self.server.clock,
            "busy": self.busy_seconds,
            "oids": sorted(self.server._objects, key=repr),
            "degraded": self.server.degraded_objects(),
            # A worker forked mid start-up inherits a paused collector
            # (``worker_main`` switches it back on).
            "gc_enabled": gc.isenabled(),
        }

    def safe_region(self, oid: ObjectId) -> Rect:
        return self.server.safe_region_of(oid)

    def snapshot(self) -> dict:
        from repro.core.snapshot import snapshot_server

        return snapshot_server(self.server)

    def restore(self, payload: dict, probe) -> None:
        from repro.core.snapshot import restore_server

        self.server = restore_server(payload, probe)
        self._queries = {q.query_id: q for q in self.server.queries()}

    def validate(self) -> None:
        self.server.validate()

    def refresh_index_gauges(self) -> None:
        self.server.refresh_index_gauges()

    def profile_start(self, max_ticks: int | None = None) -> None:
        """Attach a fresh tick-phase profiler to this shard's server.

        Reached through the generic op dispatch, so the pipe protocol
        needs no new message kinds — ``profile_start`` / a later
        ``profile_snapshot`` are ordinary ops.
        """
        from repro.obs import TickProfiler

        self.server.attach_profiler(TickProfiler(max_ticks=max_ticks))

    def profile_stop(self) -> None:
        """Detach the profiler (the shared no-op goes back in)."""
        from repro.obs import NULL_PROFILER

        self.server.attach_profiler(NULL_PROFILER)

    def profile_snapshot(self, top_k: int = 10) -> dict:
        """This shard's picklable phase/hotspot summary."""
        return self.server.profile_snapshot(top_k)

    # -- partial extraction --------------------------------------------
    def _affected_queries(
        self, touched: set[ObjectId], reevaluated: set[str]
    ) -> set[str]:
        """Ids of every query the ops may have changed.

        The ``reevaluated`` ones plus every query a touched object
        belongs to — not the reevaluation log alone, because an
        order-insensitive kNN member moving *within* the quarantine
        circle changes no result yet moves the row position the
        cross-shard merge ranks by.  A member's held position lies in
        its query's rect or circle, so the query is relevant to the
        member's held cell (the object table's ``cell`` column): that
        cell's relevant queries are the only ones whose membership needs
        a look (evicted and unknown ids have no row and belong to
        nothing).
        """
        affected = set(reevaluated)
        server = self.server
        relevant_queries = server.query_index.relevant_queries
        table = server._objects
        for oid in touched:
            if oid not in table:
                continue
            for query in relevant_queries(table.cell[table._row(oid)]):
                if oid in query.results:
                    affected.add(query.query_id)
        return affected

    def _partial(self, query: Query) -> dict:
        """This shard's contribution to the query's merged result."""
        server = self.server
        degraded = sorted(
            (oid for oid in query.results if server.is_degraded(oid)),
            key=repr,
        )
        if isinstance(query, KNNQuery):
            table = server._objects
            rows = []
            for oid in query.results:
                row = table._row(oid)
                region = table.region[row]
                # ``max_dist`` is the merge's conservative ranking bound;
                # ``min_dist`` tells the coordinator which candidates a
                # refresh probe could still move into or out of the true
                # top-k (docs/SHARDING.md "Refresh probes").
                rows.append((
                    oid, table.x[row], table.y[row],
                    region.max_dist_to_point(query.center),
                    region.min_dist_to_point(query.center),
                ))
            return {
                "kind": "knn",
                "rows": rows,
                "radius": query.radius,
                "degraded": degraded,
            }
        return {
            "kind": "range",
            "results": sorted(query.results, key=repr),
            "degraded": degraded,
        }

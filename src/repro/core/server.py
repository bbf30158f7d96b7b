"""The database server of the monitoring framework (Section 3, Algorithm 1).

The server owns four components (Figure 3.1): the object index over safe
regions (bucketed by the cells of the query grid), the in-memory grid
index over query quarantine areas, the query processor (evaluation /
incremental reevaluation with lazy probes), and the location manager
(safe-region computation).

Exact object positions are obtained through ``position_oracle`` — the
server-initiated probe channel.  In the simulator this callback charges
the probe communication cost and synchronises the client; in standalone
library use it is any function resolving an object id to its current
position.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Hashable, Iterable, Mapping

from repro.core.enhancements import ReachabilityModel, weighted_perimeter_objective
from repro.core.objects import HeldPositions, Objects, Regions
from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.core.results import BatchOutcome, ResultChange, UpdateOutcome
from repro.core.safe_region import compute_safe_region
from repro.faults import ProbeTimeout
from repro.geometry.distances import Delta, delta
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.cells import CellObjectIndex
from repro.index.grid import CellId, GridIndex
from repro.kernels import Kernels
from repro.obs import (
    COUNT_BUCKETS,
    NULL_EVENT_LOG,
    NULL_PROFILER,
    NULL_REGISTRY,
    Tracer,
    occupancy_summary,
)
from repro.runtime import paused_gc

ObjectId = Hashable
PositionOracle = Callable[[ObjectId], Point]

UNIT_SPACE = Rect(0.0, 0.0, 1.0, 1.0)

#: Cases of the probe census — ``server.reevaluations.by_case.<case>``
#: runs and the ``server.probes.by_case.<case>`` fresh probes they
#: sent: the reevaluation paths that can probe
#: (``ReevaluationOutcome.case``) and query registration.
PROBE_CASES = (
    "knn_leaves", "knn_enters", "knn_moves_within", "knn_unordered",
    "registration",
)


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """Tunables of the database server.

    * ``grid_m`` — resolution of the M x M query grid index (Section 3.3).
    * ``space`` — the workspace; the paper uses the unit square.
    * ``max_speed`` — enables the reachability-circle enhancement
      (Section 6.1) when set to the objects' maximum speed.
    * ``reachability_pushes`` — when True (default), every safe region
      tightened by the reachability constraint during a *decision* is
      installed and pushed to the client (downlink cost 0.5), keeping the
      quarantine invariants exact.  When False the constraint is used the
      way the paper describes — decide, don't install — which saves
      the downlink pushes but allows stale results whenever an object
      outruns a decision made on its constrained region (EXPERIMENTS.md,
      Fig 7.6, quantifies both).
    * ``steadiness`` — the D parameter of the weighted-perimeter
      enhancement (Section 6.2); 0 disables it.
    """

    grid_m: int = 50
    space: Rect = UNIT_SPACE
    max_speed: float | None = None
    reachability_pushes: bool = True
    steadiness: float = 0.0
    #: Ablation switch: compute the safe region for a batch of range
    #: queries with the Section 5.3 algorithm (True) or by intersecting
    #: per-query strips (False).
    batch_range_regions: bool = True
    #: Robustness knobs (docs/ROBUSTNESS.md).  A probe attempt that the
    #: channel reports as lost (``repro.faults.ProbeTimeout``) is retried
    #: up to ``probe_retries`` times with exponential backoff starting at
    #: ``probe_timeout`` time units; ``probe_budget`` caps the probe
    #: attempts any single update or registration may spend (``None`` =
    #: unlimited).  When an object stays unreachable it enters *degraded
    #: mode*: its effective region widens to the §6.1 reachability circle
    #: so query answers stay conservative, and results referencing it are
    #: flagged rather than silently wrong.
    probe_timeout: float = 0.05
    probe_retries: int = 2
    probe_budget: int | None = None
    #: What ``handle_location_update`` does with a report for an id it
    #: does not know (delayed/duplicated report after deregistration):
    #: ``"raise"`` (strict, the default) or ``"drop"`` (count + event).
    on_unknown_object: str = "raise"
    #: Speed bound used *only* to widen degraded objects' regions when
    #: ``max_speed`` (which also enables the §6.1 shrink machinery) is
    #: unset.  ``None`` with ``max_speed`` unset degrades to the whole
    #: workspace — the only conservative region without a speed bound.
    degraded_max_speed: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.steadiness <= 1.0:
            raise ValueError("steadiness must be within [0, 1]")
        if self.max_speed is not None and self.max_speed <= 0:
            raise ValueError("max_speed must be positive when set")
        if self.probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        if self.probe_retries < 0:
            raise ValueError("probe_retries must be non-negative")
        if self.probe_budget is not None and self.probe_budget < 1:
            raise ValueError("probe_budget must be positive when set")
        if self.on_unknown_object not in ("raise", "drop"):
            raise ValueError(
                "on_unknown_object must be 'raise' or 'drop', "
                f"got {self.on_unknown_object!r}"
            )
        if self.degraded_max_speed is not None and self.degraded_max_speed <= 0:
            raise ValueError("degraded_max_speed must be positive when set")


@dataclass(slots=True)
class ServerStats:
    """Operation counters and CPU accounting."""

    location_updates: int = 0
    probes: int = 0
    safe_region_pushes: int = 0
    queries_registered: int = 0
    queries_checked: int = 0
    queries_reevaluated: int = 0
    result_changes: int = 0
    cpu_seconds: float = 0.0
    # Robustness counters (docs/ROBUSTNESS.md).  ``probes`` counts only
    # answered probes (they are the billable messages); timed-out
    # attempts and their retries are tallied separately.
    probe_timeouts: int = 0
    probe_retries: int = 0
    unknown_updates: int = 0
    time_regressions: int = 0
    degraded_entries: int = 0


class DatabaseServer:
    """Safe-region-based monitoring server (the paper's SRB scheme)."""

    def __init__(
        self,
        position_oracle: PositionOracle,
        config: ServerConfig | None = None,
        metrics=None,
        events=None,
    ) -> None:
        self.config = config or ServerConfig()
        self._oracle = position_oracle
        self._reachability = (
            ReachabilityModel(self.config.max_speed)
            if self.config.max_speed is not None
            else None
        )
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        #: Structured-event stream (repro.obs.events); the shared no-op
        #: by default, so emission costs one attribute check.
        self.events = NULL_EVENT_LOG if events is None else events
        #: Sequence number of the event causally above whatever the
        #: server is currently doing (the root update/registration, or
        #: the reevaluation in progress); threads ``cause`` links
        #: through probes, shrink pushes, and region installs.
        self._cause: int | None = None
        self._trace = Tracer(self.metrics)
        #: Tick-phase profiler (repro.obs.profile): the shared no-op by
        #: default, so every hook costs one attribute check.  A capture
        #: session swaps in a live :class:`TickProfiler` via
        #: :meth:`attach_profiler`.
        self.profiler = NULL_PROFILER
        self._m_probes = self.metrics.counter("server.probes")
        self._m_pushes = self.metrics.counter("server.safe_region_pushes")
        self._m_updates = self.metrics.counter("server.location_updates")
        self._m_checked = self.metrics.histogram(
            "server.queries_checked_per_report", COUNT_BUCKETS
        )
        self._m_sr_skipped = self.metrics.counter("server.sr_recompute.skipped")
        self._m_fastpath = self.metrics.counter("server.update.fastpath")
        self._m_certified = self.metrics.counter("server.update.certified")
        self._m_probe_timeouts = self.metrics.counter("server.probes.timeouts")
        self._m_probe_retries = self.metrics.counter("server.probes.retries")
        #: Probe census (docs/OBSERVABILITY.md): per kind of work, how
        #: many reevaluations / registrations ran and how many
        #: fresh probes they sent.
        self._m_census = {
            case: (
                self.metrics.counter(f"server.reevaluations.by_case.{case}"),
                self.metrics.counter(f"server.probes.by_case.{case}"),
            )
            for case in PROBE_CASES
        }
        self._m_leaver_reelected = self.metrics.counter(
            "server.knn.leaver_reelected"
        )
        self._m_unknown = self.metrics.counter("server.updates.unknown_object")
        self._m_time_regressions = self.metrics.counter(
            "server.updates.time_regression"
        )
        self._g_degraded = self.metrics.gauge("server.objects.degraded")
        self.kernels = Kernels(metrics=self.metrics, events=self.events)
        self._g_wide = self.metrics.gauge("object_index.wide")
        self.query_index = GridIndex(
            self.config.grid_m,
            self.config.space,
            metrics=self.metrics,
            kernels=self.kernels,
            events=self.events,
        )
        #: The object table: one row per object, state in columns.
        self._objects = Objects()
        self.object_index = CellObjectIndex(self.query_index, self._objects)
        self.positions = HeldPositions(self._objects)
        #: Unreachable objects (docs/ROBUSTNESS.md): oid -> time the
        #: object entered degraded mode.  While degraded, the installed
        #: region is the §6.1 reachability circle's bounding box around
        #: the last report — conservative by construction — and query
        #: results referencing the object carry a ``degraded`` flag.
        self._degraded: dict[ObjectId, float] = {}
        degraded_speed = (
            self.config.max_speed
            if self.config.max_speed is not None
            else self.config.degraded_max_speed
        )
        self._degraded_model = (
            ReachabilityModel(degraded_speed)
            if degraded_speed is not None
            else None
        )
        #: Server-side monotonic clock: the latest update time processed.
        #: Reports carrying an earlier time (reordered channel) are
        #: clamped to it and counted (``server.updates.time_regression``).
        self._clock = 0.0
        # Per-operation probe accounting: attempts spent against
        # ``probe_budget`` and targets whose probes failed this round.
        self._probe_spent = 0
        self._failed_probes: set[ObjectId] = set()
        #: Deferred slow-path pointify: ``(oid, position)`` of an updater
        #: whose index entry has not been collapsed to its exact point
        #: yet.  The collapse is only observable through an index read
        #: between ingestion and the location manager's reinstall, so it
        #: runs lazily — just before the first reevaluation that can read
        #: the index — and is skipped entirely for reports that affect
        #: nothing (the reinstall overwrites the entry anyway).
        self._pending_pointify: tuple | None = None
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._objects

    @property
    def object_count(self) -> int:
        return len(self._objects)

    @property
    def query_count(self) -> int:
        return len(self.query_index)

    def safe_region_of(self, oid: ObjectId) -> Rect:
        """The safe region currently installed for ``oid``."""
        return self._objects[oid].safe_region

    def queries(self) -> frozenset[Query]:
        """All registered queries."""
        return self.query_index.all_queries()

    @property
    def clock(self) -> float:
        """The server's monotonic time: the latest update time processed."""
        return self._clock

    def degraded_objects(self) -> dict[ObjectId, float]:
        """Currently unreachable objects, mapped to degraded-entry time."""
        return dict(self._degraded)

    def is_degraded(self, oid: ObjectId) -> bool:
        return oid in self._degraded

    def validate(self, queries: bool = False) -> None:
        """Check server-wide invariants (tests), the object index's included.

        ``queries`` also checks what the kNN results rest on
        (:func:`quarantine_breaches`).
        """
        objects, grid, index = self._objects, self.query_index, self.object_index
        index.validate()
        assert len(index) == len(objects), (
            "object index out of sync with object table"
        )
        # The hot paths read an object's cell from the table and never
        # recompute it from coordinates (cell ids are interned).
        items = list(objects.row_items())
        xs, ys = objects.x, objects.y
        cells = grid.cells_of_xy(
            [xs[row] for _, row in items], [ys[row] for _, row in items]
        )
        for (oid, row), cell in zip(items, cells):
            region = objects.region[row]
            assert region.contains_point(
                Point(xs[row], ys[row]), eps=1e-9
            ), f"safe region of {oid!r} lost its own location"
            assert objects.cell[row] is cell, (
                f"held cell of {oid!r} is not the cell of its position"
            )
            assert index.rect_of(oid) == region, f"index desync for {oid!r}"
            assert objects.cert_gen[row] < 0 or (
                objects.clearances[row] is not None
                or region == grid.cell_rect(cell)
            ), f"query-free certificate of {oid!r} without its full cell"
        if queries:
            breaches = quarantine_breaches(self)
            assert not breaches, f"quarantine invariants broken: {breaches}"

    def refresh_index_gauges(self) -> None:
        """Publish the object index's shape gauge (``object_index.wide``).

        Sampled at bulk load, query registration, and batch boundaries.
        The grid's own gauges (``grid.cells_indexed`` et al.) refresh on
        mutation.
        """
        self._g_wide.set(len(self.object_index.wide))

    def attach_profiler(self, profiler) -> None:
        """Install a tick-phase profiler (``NULL_PROFILER`` detaches)."""
        self.profiler = profiler
        self._trace.attach_profiler(profiler)

    def profile_start(self, max_ticks: int | None = None) -> None:
        """Begin a profiling session (same surface as ``ShardedServer``)."""
        from repro.obs import TickProfiler

        self.attach_profiler(TickProfiler(max_ticks=max_ticks))

    def profile_stop(self) -> None:
        """End the session; the shared no-op profiler goes back in."""
        self.attach_profiler(NULL_PROFILER)

    def profile_snapshot(self, top_k: int = 10) -> dict:
        """The attached profiler's summary + current cell-occupancy skew.

        The occupancy section counts the objects' held cells at
        snapshot time (it is state, not a per-tick cost) and reuses the
        ``shard.objects.imbalance`` formula.
        """
        summary = self.profiler.to_dict(top_k)
        objects = self._objects
        summary["occupancy"] = occupancy_summary(Counter(
            objects.cell[row] for _, row in objects.row_items()
        ).values())
        return summary

    # ------------------------------------------------------------------
    # Object population
    # ------------------------------------------------------------------
    @paused_gc()
    def bootstrap(
        self,
        objects: Iterable[tuple[ObjectId, Point]],
        queries: Iterable[Query] = (),
        time: float = 0.0,
    ) -> Mapping[ObjectId, Rect]:
        """Start monitoring ``objects`` and ``queries`` together, in one pass.

        At start-up every object has just reported its exact position,
        so nothing about the queries is ambiguous: each is evaluated
        over a *point* index (Algorithm 2 and the range evaluator
        return without a probe), and only then is every object's first
        safe region derived — once, against the complete query set —
        and the object index rebuilt from the final regions.
        Registering the same queries one by one after a plain load
        would instead evaluate each over full-cell regions, probe every
        ambiguous object, and re-derive regions cell by cell.

        With no queries every region is the object's full grid cell —
        the largest region the framework ever grants.  Returns the safe
        regions to hand to the clients, a read-only mapping over the
        object table; ``register_query`` remains the way to add a query
        to a running system.
        """
        if self.query_count:
            raise RuntimeError("bootstrap must run before query registration")
        queries = list(queries)
        with self._trace.span("server.bootstrap"):
            self._clock = max(self._clock, time)
            grid = self.query_index
            table = self._objects
            oids, xs, ys = [], array("d"), array("d")
            for oid, position in objects:
                oids.append(oid)
                xs.append(position.x)
                ys.append(position.y)
            cells = grid.cells_of_xy(xs, ys)
            cell_rect = grid.cell_rect
            # The full cell stands until a region is derived below.
            first = table.load(oids, [cell_rect(c) for c in cells], xs, ys, cells, time)
            del xs, ys, cells
            # Index keys are the loaded oids (the caller's int objects),
            # not ints made by iterating a range table.
            order = oids if first == 0 else list(table)
            del oids
            if queries:
                order = self._bootstrap_queries(queries, order, time)
            events = self.events
            regions, row_of = table.region, table._row
            #: Query-free cell -> the grant every resident shares: the
            #: full cell and its certificate's generation.
            grants: dict = {}
            for oid in order:
                row = row_of(oid)
                cell = table.cell[row]
                if not grid.has_queries_in_cell(cell):
                    # No query can shape this region: what
                    # ``_full_safe_region`` would hand back,
                    # without entering it.
                    grant = grants.get(cell)
                    if grant is None:
                        grant = grants[cell] = (
                            cell_rect(cell), grid.cell_generation(cell)
                        )
                    regions[row], table.cert_gen[row] = grant
                    table.clearances[row] = None
                    continue
                region = regions[row] = self._full_safe_region(oid, row, None)
                if events.enabled and (
                    table.cert_gen[row] < 0 or table.clearances[row] is not None
                ):
                    # Regions shaped by a query are installs like any
                    # other; a query-free full cell is the silent default.
                    events.emit(
                        "safe_region", oid=oid,
                        region=(region.min_x, region.min_y,
                                region.max_x, region.max_y),
                        pos=(table.x[row], table.y[row]),
                    )
            # Drop the point index (if any) before building its
            # replacement, so the two never coexist in memory.
            self.object_index = CellObjectIndex(grid, table)
            self.object_index.load((oid, regions[row_of(oid)]) for oid in order)
        self.refresh_index_gauges()
        self.stats.cpu_seconds = self._trace.cpu_seconds
        return Regions(table)

    def _bootstrap_queries(
        self, queries: list[Query], oids: list[ObjectId], time: float
    ) -> list[ObjectId]:
        """Evaluate the start-up queries over exact points of ``oids``
        (every object, in table order); index them.

        Leaves ``object_index`` a point index, so the region pass that
        follows sees every ranked kNN neighbour as a point and
        ``knn_safe_region`` splits each gap by the midpoint rule on
        both sides.  Returns the order to derive regions in: objects an
        extension evaluator asked about first, as asked — a query
        anchored at a moving object records the anchor's granted box,
        which the regions of the objects around it must be cut against.
        """
        table = self._objects
        xs, ys = table.x, table.y
        self.object_index = CellObjectIndex(self.query_index, table)
        self.object_index.load(
            (oid, Rect(xs[row], ys[row], xs[row], ys[row]))
            for oid, row in zip(oids, map(table._row, oids))
        )
        asked: dict[ObjectId, None] = {}

        def held_position(target: ObjectId) -> Point:
            # Not a probe: the position was reported this instant, so
            # nothing is counted and no message is sent.
            asked[target] = None
            row = table._row(target)
            return Point(xs[row], ys[row])

        events = self.events
        if events.enabled:
            events.set_time(time)
        for query in queries:
            if events.enabled:
                events.emit("query_registered", query=query.query_id)
            query.evaluate_over(
                self.object_index, held_position, None, self.kernels
            )
            self.query_index.insert(query)
            self.stats.queries_registered += 1
        return list(asked) + [oid for oid in oids if oid not in asked]

    def load_objects(
        self, positions: Iterable[tuple[ObjectId, Point]], time: float = 0.0
    ) -> Mapping[ObjectId, Rect]:
        """Bulk-register objects before any query exists.

        :meth:`bootstrap` with no queries: every safe region is the
        object's full grid cell.
        """
        return self.bootstrap(positions, (), time)

    def add_object(
        self, oid: ObjectId, position: Point, time: float = 0.0
    ) -> UpdateOutcome:
        """Register one object dynamically, reevaluating affected queries."""
        region = Rect.from_point(position)
        row = self._objects.put(
            oid, region, position.x, position.y,
            self.query_index.cell_of(position), time,
        )
        self.object_index.insert(oid, region)
        return self._process_update(oid, row, position, time, fresh=True)

    def remove_object(self, oid: ObjectId) -> None:
        """Drop an object (its query memberships are *not* reevaluated)."""
        self.object_index.delete(oid)
        self._objects.discard(oid)
        if self._degraded.pop(oid, None) is not None:
            self._g_degraded.set(len(self._degraded))

    def evict_object(self, oid: ObjectId, time: float = 0.0) -> UpdateOutcome:
        """Remove ``oid`` and repair every query result referencing it.

        Unlike :meth:`remove_object` (a pure teardown), eviction keeps
        registered query results correct: range results drop the member,
        kNN results that held it are re-evaluated from scratch over the
        remaining objects, and every object probed during the refill gets
        a fresh safe region through the usual ingest / location-manager
        machinery.  This is the migration primitive of the sharded
        deployment (``repro.sharding``): the object keeps existing, but
        on another shard, so this shard must stop answering for it.
        """
        if oid not in self._objects:
            raise KeyError(f"cannot evict unknown object {oid!r}")
        row = self._objects._row(oid)
        with self._trace.span("server.evict_object"):
            self._probe_spent = 0
            self._failed_probes.clear()
            self._clock = max(self._clock, time)
            self._refresh_degraded(self._clock)
            if self.events.enabled:
                self.events.set_time(self._clock)
                table = self._objects
                self._cause = self.events.emit(
                    "evict", oid=oid, pos=(table.x[row], table.y[row])
                )
            try:
                outcome = self._evict_object(oid, self._clock)
            finally:
                self._cause = None
        self.refresh_index_gauges()
        self.stats.cpu_seconds = self._trace.cpu_seconds
        return outcome

    def _evict_object(self, oid: ObjectId, time: float) -> UpdateOutcome:
        probed: dict[ObjectId, Point] = {}
        shrunk_only: dict[ObjectId, Rect] = {}
        previous_positions: dict[ObjectId, Point] = {}
        probe = self._make_probe(probed, time)
        constrain = self._make_constrain(time)
        outcome = UpdateOutcome()

        # Take the object out of the indexes *first*: the kNN refills
        # below evaluate over the object index and must not resurrect it.
        self.remove_object(oid)

        # Membership, not geometry, decides which queries need repair: a
        # result member may sit anywhere inside the quarantine area, so
        # scanning the registered queries is the only sound filter.
        referencing = sorted(
            (q for q in self.query_index.all_queries() if oid in q.results),
            key=lambda q: q.query_id,
        )
        events = self.events
        phase = self._trace.phase
        for query in referencing:
            before = _snapshot(query)
            probes_before = set(probed)
            parent_cause = self._cause
            if events.enabled:
                self._cause = events.emit(
                    "reevaluation", cause=parent_cause,
                    query=query.query_id, oid=oid,
                )
            try:
                repair = query.evict(oid, self.object_index, probe, constrain)
                fresh = {
                    target: pos
                    for target, pos in probed.items()
                    if target not in probes_before
                }
                previous_positions.update(
                    phase("probe", self._apply_probes, fresh, time)
                )
                if self.config.reachability_pushes:
                    shrunk_only.update(
                        phase("shrink", self._apply_shrinks, repair.shrunk, probed)
                    )
                if repair.quarantine_changed:
                    self.query_index.update(query)
                after = _snapshot(query)
                degraded_members: tuple = ()
                if self._degraded or self._failed_probes:
                    unreachable = self._failed_probes | set(self._degraded)
                    degraded_members = tuple(sorted(
                        (o for o in query.results if o in unreachable),
                        key=repr,
                    ))
                outcome.changes.append(
                    ResultChange(
                        query.query_id, before, after,
                        degraded=degraded_members,
                    )
                )
                if before != after:
                    self.stats.result_changes += 1
                    if events.enabled:
                        events.emit(
                            "result_change", cause=self._cause,
                            query=query.query_id, case="evict",
                            before=_event_snapshot(before),
                            after=_event_snapshot(after),
                            **(
                                {"degraded": list(degraded_members)}
                                if degraded_members else {}
                            ),
                        )
                self.stats.queries_reevaluated += 1
            finally:
                self._cause = parent_cause
        outcome.queries_reevaluated = len(outcome.changes)
        self._refresh_probed(
            probe, probed, previous_positions, shrunk_only, constrain,
            outcome, time,
        )
        return outcome

    # ------------------------------------------------------------------
    # Query registration (Algorithm 1, lines 2-7)
    # ------------------------------------------------------------------
    def register_query(self, query: Query, time: float = 0.0) -> UpdateOutcome:
        """Evaluate a new query from scratch and start monitoring it.

        Every object probed during evaluation is treated as having sent a
        location report: its exact position may contradict *other*
        registered queries (probes can catch an object that has drifted
        past its safe region under finite client polling or message
        delay), so those queries are reevaluated too.  All probed objects
        then receive freshly recomputed safe regions.
        """
        with self._trace.span("server.register_query"):
            self._probe_spent = 0
            self._failed_probes.clear()
            self._clock = max(self._clock, time)
            self._refresh_degraded(self._clock)
            if self.events.enabled:
                self.events.set_time(time)
                self._cause = self.events.emit(
                    "query_registered", query=query.query_id
                )
            try:
                outcome = self._register_query(query, time)
            finally:
                self._cause = None
        self.refresh_index_gauges()
        self.stats.cpu_seconds = self._trace.cpu_seconds
        return outcome

    def _register_query(self, query: Query, time: float) -> UpdateOutcome:
        probed: dict[ObjectId, Point] = {}
        shrunk_only: dict[ObjectId, Rect] = {}
        previous_positions: dict[ObjectId, Point] = {}
        probe = self._make_probe(probed, time)
        constrain = self._make_constrain(time)

        if not isinstance(query, Query):
            raise TypeError(f"unsupported query type: {type(query).__name__}")
        evaluation = query.evaluate_over(
            self.object_index, probe, constrain, self.kernels
        )
        self._census("registration", len(probed))
        phase = self._trace.phase
        previous_positions.update(phase("probe", self._apply_probes, probed, time))
        if self.config.reachability_pushes:
            shrunk_only.update(
                phase("shrink", self._apply_shrinks, evaluation.shrunk, probed)
            )
        self.query_index.insert(query)
        self.stats.queries_registered += 1

        outcome = UpdateOutcome()
        outcome.changes.append(
            ResultChange(query.query_id, None, _snapshot(query))
        )
        self._refresh_probed(
            probe, probed, previous_positions, shrunk_only, constrain,
            outcome, time,
        )
        return outcome

    def _refresh_probed(
        self, probe, probed, previous_positions, shrunk_only, constrain,
        outcome: UpdateOutcome, time: float,
    ) -> None:
        """Ingest every object an eviction or registration probed, then
        hand each a fresh safe region."""
        phase = self._trace.phase
        phase(
            "ingest", self._ingest_reports, list(probed.items()), probe,
            probed, previous_positions, shrunk_only, constrain, outcome,
            time, {},
        )
        phase(
            "location_manager", self._location_manager_phase, list(probed),
            {}, previous_positions, shrunk_only, outcome, None,
        )

    def deregister_query(self, query: Query) -> None:
        """Stop monitoring ``query`` (Algorithm 1, lines 6-7).

        Safe regions computed while the query was registered remain valid
        (they are conservative), so no object needs to be contacted.
        """
        self.query_index.remove(query)

    # ------------------------------------------------------------------
    # Location updates (Algorithm 1, lines 8-15)
    # ------------------------------------------------------------------
    def handle_location_update(
        self, oid: ObjectId, position: Point, time: float = 0.0
    ) -> UpdateOutcome:
        """Process a source-initiated location update from ``oid``.

        Returns the new safe region for the updater (``safe_region``), new
        safe regions for every probed object (``probed``), and the result
        deltas to push to application servers (``changes``).

        A report for an unknown id — what a delayed or duplicated message
        produces after a deregistration — follows
        ``ServerConfig.on_unknown_object``: ``"raise"`` (strict default)
        or ``"drop"`` (counted, evented, returns an empty outcome).
        """
        row = self._objects.find(oid)
        if row is None:
            return self._handle_unknown_update(oid, position, time)
        return self._process_update(oid, row, position, time)

    def _handle_unknown_update(
        self, oid: ObjectId, position: Point, time: float
    ) -> UpdateOutcome:
        if self.config.on_unknown_object == "raise":
            raise KeyError(
                f"location update for unknown object {oid!r} "
                "(set ServerConfig.on_unknown_object='drop' to tolerate "
                "late reports for deregistered objects)"
            )
        self.stats.unknown_updates += 1
        self._m_unknown.inc()
        if self.events.enabled:
            self.events.set_time(max(time, self._clock))
            self.events.emit(
                "unknown_update", oid=oid, pos=(position.x, position.y)
            )
        return UpdateOutcome()

    def handle_location_updates(
        self, reports: Iterable[tuple[ObjectId, Point]], time: float = 0.0
    ) -> BatchOutcome:
        """Process a batch of same-tick location reports, grouped by cell.

        Reports are handled strictly sequentially — the semantics are
        identical to calling ``handle_location_update`` per report — but
        in the deterministic order of :meth:`_order_tick`: updates
        landing in the same grid cell run back to back, so the per-cell
        candidate caches, the interned cell rectangles, and the memoised
        per-query geometry stay hot across co-located objects.

        A batch :meth:`_order_tick` marks bulk-eligible runs through
        :meth:`_bulk_updates`, whose no-op exit skips the per-report
        span/outcome scaffolding.  Results, messages, and
        ``ServerStats`` are bit-identical to the sequential contract;
        only CPU cost changes.
        """
        reports = list(reports)
        batch = BatchOutcome()
        profiler = self.profiler
        # The ownership token: an outer wrapper (a shard batch op) may
        # already hold the tick — then this batch nests inside it.
        owns_tick = profiler.enabled and profiler.tick_begin()
        try:
            cells, ordered, bulk = self._order_tick(reports, time)
            if bulk:
                self._bulk_updates(reports, ordered, cells, time, batch)
            else:
                for i in ordered:
                    oid, position = reports[i]
                    outcome = self.handle_location_update(oid, position, time)
                    batch.merge(oid, outcome)
            self.refresh_index_gauges()
            return batch
        finally:
            if owns_tick:
                profiler.tick_end(len(reports))

    def _order_tick(self, reports: list, time: float):
        """Destination cells, processing order and bulk-loop gate of a tick.

        Returns ``(cells, ordered, bulk)``.  The order is by
        destination cell (one columnar pass, identical to per-report
        ``grid.cell_of``), then submission order — a stable sort, so the
        key collapses to the cell alone.  It depends only on the reports
        themselves, not on any cache state, so batched runs are
        reproducible with caches on or off.

        A batch holding several reports for the *same* object (duplicated
        or retransmitted messages) keeps plain submission order and never
        takes :meth:`_bulk_updates`: sorting by destination cell could
        run them out of order and land the object on the wrong final
        position.  An enabled event stream, degraded objects, or a
        non-monotone timestamp also rule the bulk loop out — those
        reports need the per-report prologue.
        """
        oids = [oid for oid, _ in reports]
        if not reports or len(set(oids)) != len(oids):
            return None, range(len(reports)), False
        cells = self.query_index.cells_of_points(
            [position for _, position in reports]
        )
        ordered = sorted(range(len(reports)), key=cells.__getitem__)
        bulk = (
            not self.events.enabled
            and not self._degraded
            and time >= self._clock
        )
        return cells, ordered, bulk

    def _bulk_updates(self, reports, ordered, cells, time, batch) -> None:
        """Certificate-hoisted batch loop (see ``handle_location_updates``).

        The loop of ``_process_update`` with the no-op exit's per-report
        span, ``UpdateOutcome`` and counter scaffolding hoisted to batch
        level.  Strictly sequential semantics: a report the certificate
        does not cover runs the slow half exactly as a single report would.
        """
        table = self._objects
        find, regions, clearances = table.find, table.region, table.clearances
        degraded = self._degraded
        certificate_holds = self._certificate_holds
        commit_noop = self._commit_noop
        metrics_on = self.metrics.enabled
        # The first sequential report would advance the clock to
        # ``time`` (monotonicity was checked by the caller); committing
        # it up front keeps no-op timestamps identical.
        self._clock = time
        fast_n = cert_n = 0
        for i in ordered:
            oid, position = reports[i]
            row = find(oid)
            if row is None or degraded:
                # Unknown ids and mid-batch degradation need the
                # full per-report prologue.
                outcome = self.handle_location_update(oid, position, time)
            elif certificate_holds(row, position, cells[i]):
                commit_noop(oid, row, position, cells[i], time)
                fast_n += 1
                if clearances[row] is not None:
                    cert_n += 1
                # Inline ``BatchOutcome.merge`` of an outcome whose
                # only payload is the safe region.
                batch.regions[oid] = regions[row]
                if batch.missed:
                    batch.missed = [t for t in batch.missed if t != oid]
                if metrics_on:
                    self._m_checked.observe(0)
                continue
            else:
                outcome = self._process_update(
                    oid, row, position, time, rejected=True
                )
            batch.merge(oid, outcome)
        if fast_n:
            self.stats.location_updates += fast_n
            if metrics_on:
                self._m_updates.inc(fast_n)
                self._m_fastpath.inc(fast_n)
                if cert_n:
                    self._m_certified.inc(cert_n)
            self.stats.cpu_seconds = self._trace.cpu_seconds

    def _certificate_holds(
        self, row: int, position: Point, cell_new: tuple
    ) -> bool:
        """Whether row ``row``'s certificate proves a report at
        ``position`` a no-op.

        The one validity test of the safe-region certificate
        (Algorithm 1, lines 8-15: a report that cannot leave its safe
        region's guarantees changes nothing).  ``cell_new`` is the grid
        cell of ``position``.  Pure — :meth:`_commit_noop` is the write —
        and hot (twice per batched report): it reads the grid's dicts.
        """
        table = self._objects
        cell = table.cell[row]
        grid = self.query_index
        # No certificate (-1) never equals a cell generation (>= 0).
        if table.cert_gen[row] != grid._generations.get(cell, 0):
            return False  # a query entered or left the cell since issue
        clearances = table.clearances[row]
        if clearances is None:
            # Query-free cell, region = the closed cell: landing in the
            # same or another query-free cell leaves both candidate
            # buckets empty, so there is nothing to reevaluate and the
            # recomputed region is exactly the landing cell's rectangle.
            return cell_new == cell or cell_new not in grid._buckets
        if cell_new != cell:
            return False
        region = table.region[row]
        if not (
            region.min_x < position.x < region.max_x
            and region.min_y < position.y < region.max_y
        ):
            return False
        # Flat: query, clearance, query, clearance, ...
        k, end = 0, len(clearances)
        while k < end:
            if clearances[k].radius >= clearances[k + 1]:
                return False  # the closed circle grew onto the region
            k += 2
        return True

    def _commit_noop(
        self,
        oid: ObjectId,
        row: int,
        position: Point,
        cell_new: tuple,
        time: float,
    ) -> None:
        """Commit a report :meth:`_certificate_holds` proved a no-op.

        Only the held position and its cell move.  The full path's
        pointify-then-recompute index churn (two index updates)
        collapses to zero, or to one on a query-free cell crossing,
        where the region re-anchors to the new cell's rectangle.
        """
        # Commit the position before any region install so the
        # ``safe_region`` event (and its containment invariant) sees the
        # position the region was granted for.
        table = self._objects
        table.x[row] = position.x
        table.y[row] = position.y
        table.t[row] = time
        cells = table.cell
        if cell_new != cells[row]:
            cells[row] = cell_new
            grid = self.query_index
            self._install_safe_region(oid, row, grid.cell_rect(cell_new))
            table.cert_gen[row] = grid.cell_generation(cell_new)

    def _process_update(
        self,
        oid: ObjectId,
        row: int,
        position: Point,
        time: float,
        rejected: bool = False,
        fresh: bool = False,
    ) -> UpdateOutcome:
        """One report: prologue, no-op exit, else the slow path.

        ``rejected`` marks a report whose certificate the caller has
        already tested and found wanting (``_bulk_updates``); ``fresh``
        an object with no previous report (``add_object``).
        """
        table = self._objects
        profiler = self.profiler
        # Auto-root: an update arriving outside a batch (the simulator's
        # per-event path) is its own one-report tick; inside a batch the
        # open tick wins (tick_begin returns False).
        owns_tick = profiler.enabled and profiler.tick_begin()
        try:
            with self._trace.span("server.update"):
                self.stats.location_updates += 1
                self._m_updates.inc()
                self._probe_spent = 0
                self._failed_probes.clear()
                time = self._advance_clock(oid, time)
                self._refresh_degraded(time)
                events = self.events
                if events.enabled:
                    events.set_time(time)
                    self._cause = events.emit(
                        "update",
                        oid=oid,
                        pos=(position.x, position.y),
                        prev=None if fresh else (table.x[row], table.y[row]),
                    )
                if self._degraded and oid in self._degraded:
                    # The object reported: it is reachable again.
                    self._exit_degraded(oid, time)
                try:
                    cell_new = self.query_index.cell_of(position)
                    if not rejected and self._certificate_holds(
                        row, position, cell_new
                    ):
                        self._commit_noop(oid, row, position, cell_new, time)
                        self._m_fastpath.inc()
                        if table.clearances[row] is not None:
                            self._m_certified.inc()
                        self._m_checked.observe(0)
                        outcome = UpdateOutcome()
                        outcome.safe_region = table.region[row]
                        if events.enabled:
                            events.emit("fastpath", cause=self._cause, oid=oid)
                    else:
                        previous = None if fresh else Point(table.x[row], table.y[row])
                        outcome = self._slowpath_update(
                            oid, row, position, cell_new, previous, time
                        )
                finally:
                    self._cause = None
            self.stats.cpu_seconds = self._trace.cpu_seconds
            return outcome
        finally:
            if owns_tick:
                profiler.tick_end(1)

    def _slowpath_update(
        self,
        oid: ObjectId,
        row: int,
        position: Point,
        cell: CellId,
        previous: Point | None,
        time: float,
    ) -> UpdateOutcome:
        self._objects.hold(row, position, cell, time)
        # Defer the pointify: it only matters if some reevaluation
        # actually reads the index before the location manager
        # reinstalls the entry.  ``_reevaluate_affected`` flushes
        # it just in time; otherwise the entry is never touched.
        self._pending_pointify = (oid, position)

        probed: dict[ObjectId, Point] = {}
        shrunk_only: dict[ObjectId, Rect] = {}
        previous_positions: dict[ObjectId, Point] = {}
        probe = self._make_probe(probed, time)
        constrain = self._make_constrain(time)
        outcome = UpdateOutcome()

        phase = self._trace.phase
        try:
            phase(
                "ingest", self._ingest_reports, [(oid, position)], probe,
                probed, previous_positions, shrunk_only, constrain, outcome,
                time, {oid: previous},
            )
            outcome.queries_reevaluated = len(outcome.changes)

            targets = [oid] + [target for target in probed if target != oid]
            phase(
                "location_manager", self._location_manager_phase, targets,
                {oid: previous}, previous_positions, shrunk_only, outcome, oid,
            )
        finally:
            self._pending_pointify = None
        return outcome

    def _ingest_reports(
        self,
        initial_reports: list[tuple[ObjectId, Point]],
        probe,
        probed: dict[ObjectId, Point],
        previous_positions: dict[ObjectId, Point],
        shrunk_only: dict[ObjectId, Rect],
        constrain,
        outcome: UpdateOutcome,
        time: float,
        initial_previous: dict[ObjectId, Point | None],
    ) -> None:
        """Reevaluate queries for a cascade of position reports.

        Every position report — a source-initiated update or a probed
        position — goes through affected-query reevaluation.  A probe can
        catch an object outside its safe region (clients detect crossings
        at a finite polling rate, and messages are delayed), so the probed
        position may contradict *other* queries' results; those queries
        must be fixed now, or the error persists until the object happens
        to report again.  Reevaluation may probe further objects, whose
        reports join the queue; each object is ingested at most once.
        """
        reports = list(initial_reports)
        reported = {r_oid for r_oid, _ in reports}
        phase = self._trace.phase
        while reports:
            r_oid, r_pos = reports.pop(0)
            r_prev = initial_previous.get(
                r_oid, previous_positions.get(r_oid)
            )
            phase(
                "reevaluate", self._reevaluate_affected, r_oid, r_pos, r_prev,
                probe, probed, previous_positions, shrunk_only, constrain,
                outcome, time,
            )
            for target, target_pos in probed.items():
                if target not in reported:
                    reported.add(target)
                    reports.append((target, target_pos))

    def _location_manager_phase(
        self,
        targets: list[ObjectId],
        initial_previous: dict[ObjectId, Point | None],
        previous_positions: dict[ObjectId, Point],
        shrunk_only: dict[ObjectId, Rect],
        outcome: UpdateOutcome,
        updater: ObjectId | None,
    ) -> None:
        """Recompute safe regions for every object that reported (§5).

        Scatters the fresh regions back onto the outcome (the profile's
        ``report.scatter``); construction is its ``safe_region`` site.
        """
        # Hoisted out of the loop (one lookup per report adds up).
        table = self._objects
        install_safe_region = self._install_safe_region
        failed_probes = self._failed_probes
        phase = self._trace.phase

        for target in targets:
            if target in failed_probes:
                # Unreachable this round: the widened degraded region
                # installed by ``_apply_probes`` stands — recomputing a
                # safe region around the stale fix would be unsound, and
                # there is no client to deliver one to anyway.
                shrunk_only.pop(target, None)
                if target not in outcome.missed:
                    outcome.missed.append(target)
                continue
            row = table._row(target)
            if (
                target != updater
                and table.cert_gen[row] >= 0
                and self._certificate_holds(
                    row, Point(table.x[row], table.y[row]), table.cell[row]
                )
            ):
                # Lazy recomputation: a probed target whose certificate
                # still covers its exact position (the updater's was
                # just rejected by the no-op exit).  Recomputing would
                # return the identical rectangle (query-free cell) or
                # only re-centre it (covered cell); reinstalling restores
                # the index entry the probe pointified.
                region = table.region[row]
                self._m_sr_skipped.inc()
                if self.events.enabled:
                    self.events.emit(
                        "sr_skip", cause=self._cause, oid=target
                    )
            else:
                region = phase(
                    "safe_region",
                    self._full_safe_region,
                    target,
                    row,
                    initial_previous[target]
                    if target in initial_previous
                    else previous_positions.get(target),
                )
            shrunk_only.pop(target, None)
            install_safe_region(target, row, region)
            if target == updater:
                outcome.safe_region = region
            else:
                outcome.probed[target] = region
        for target, region in shrunk_only.items():
            outcome.probed[target] = region

    def _reevaluate_affected(
        self,
        oid: ObjectId,
        position: Point,
        previous: Point | None,
        probe,
        probed: dict[ObjectId, Point],
        previous_positions: dict[ObjectId, Point],
        shrunk_only: dict[ObjectId, Rect],
        constrain,
        outcome: UpdateOutcome,
        time: float,
    ) -> None:
        """Reevaluate every query affected by one position report."""
        ordered = self.query_index.candidate_queries_ordered(position, previous)
        outcome.queries_checked += len(ordered)
        self.stats.queries_checked += len(ordered)
        self._m_checked.observe(len(ordered))
        affected = [q for q in ordered if q.is_affected_by(oid, position)]
        if affected and self._pending_pointify is not None:
            # Flush the deferred pointify before any reevaluation that
            # can read the index (kNN evaluation, extension hooks).
            # Plain range flips never touch the index, so a pure-range
            # affected set leaves the entry for the reinstall.
            for query in affected:
                if type(query) is not RangeQuery:
                    p_oid, p_pos = self._pending_pointify
                    self._pending_pointify = None
                    self.object_index.update(p_oid, Rect.from_point(p_pos))
                    break
        profiler = self.profiler
        profile_on = profiler.enabled
        if profile_on:
            # Hotspot attribution: the report's object, its landing cell
            # (candidate rows stand in for kernel rows), and — below —
            # per-query reevaluation seconds.
            profiler.note_report(
                oid, self.query_index.cell_of(position),
                len(ordered), len(affected),
            )
        events = self.events
        phase = self._trace.phase
        for query in affected:
            started = perf_counter() if profile_on else 0.0
            before = _snapshot(query)
            probes_before = set(probed)
            parent_cause = self._cause
            if events.enabled:
                # Emitted *before* the work so probes and shrinks issued
                # inside the reevaluation chain to it, completing the
                # update → query → probe → result-change causal path.
                self._cause = events.emit(
                    "reevaluation", cause=parent_cause,
                    query=query.query_id, oid=oid,
                )
            try:
                reevaluation = query.reevaluate_for(
                    oid, position, self.object_index, probe, constrain
                )
                fresh = {
                    target: pos
                    for target, pos in probed.items()
                    if target not in probes_before
                }
                case = reevaluation.case
                self._census(case, len(fresh))
                if case == "knn_leaves" and oid in query.results:
                    # Case 1 re-elected the leaver as the k-th neighbour.
                    self._m_leaver_reelected.inc()
                previous_positions.update(
                    phase("probe", self._apply_probes, fresh, time)
                )
                if self.config.reachability_pushes:
                    shrunk_only.update(phase(
                        "shrink", self._apply_shrinks, reevaluation.shrunk,
                        probed,
                    ))
                if reevaluation.quarantine_changed:
                    self.query_index.update(query)
                after = _snapshot(query)
                degraded_members: tuple = ()
                if self._degraded or self._failed_probes:
                    # Flag result members whose membership rests on a
                    # stale position: consumers see "possibly in the
                    # result", never a silently wrong answer.
                    unreachable = self._failed_probes | set(self._degraded)
                    degraded_members = tuple(sorted(
                        (o for o in query.results if o in unreachable),
                        key=repr,
                    ))
                outcome.changes.append(
                    ResultChange(
                        query.query_id, before, after,
                        degraded=degraded_members,
                    )
                )
                if before != after:
                    self.stats.result_changes += 1
                    if events.enabled:
                        events.emit(
                            "result_change", cause=self._cause,
                            query=query.query_id,
                            case=case,
                            before=_event_snapshot(before),
                            after=_event_snapshot(after),
                            **(
                                {"degraded": list(degraded_members)}
                                if degraded_members else {}
                            ),
                        )
                self.stats.queries_reevaluated += 1
            finally:
                self._cause = parent_cause
                if profile_on:
                    profiler.note_query(
                        query.query_id, perf_counter() - started
                    )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_probe(self, probed: dict[ObjectId, Point], time: float):
        def probe(target: ObjectId) -> Point:
            position = self._attempt_probe(target)
            if position is None:
                # Unreachable past the retry budget: answer with the last
                # report so evaluation can finish, remember the failure so
                # ``_apply_probes`` widens the object's region to the
                # reachability circle instead of pointifying a stale fix.
                self._failed_probes.add(target)
                table = self._objects
                row = table._row(target)
                position = Point(table.x[row], table.y[row])
            else:
                self._failed_probes.discard(target)
                self.stats.probes += 1
                self._m_probes.inc()
                if self.events.enabled:
                    # cause is read at call time: probes issued during a
                    # query's reevaluation chain to that reevaluation
                    # event.
                    self.events.emit(
                        "probe", cause=self._cause, oid=target,
                        pos=(position.x, position.y),
                    )
            probed[target] = position
            return position

        return probe

    def _census(self, case: str, fresh: int) -> None:
        """Tally one run of ``case`` and the ``fresh`` probes it sent."""
        counters = self._m_census.get(case)
        if counters is not None:
            runs, probes = counters
            runs.inc()
            probes.inc(fresh)

    def _attempt_probe(self, target: ObjectId) -> Point | None:
        """One probe with bounded retry, backoff, and the per-op budget.

        Returns the answered position, or ``None`` when every attempt
        timed out or the budget ran dry — the caller degrades the object.
        """
        config = self.config
        for attempt in range(config.probe_retries + 1):
            if (
                config.probe_budget is not None
                and self._probe_spent >= config.probe_budget
            ):
                self.stats.probe_timeouts += 1
                self._m_probe_timeouts.inc()
                if self.events.enabled:
                    self.events.emit(
                        "probe_timeout", cause=self._cause, oid=target,
                        attempt=attempt, reason="budget",
                    )
                return None
            if attempt:
                self.stats.probe_retries += 1
                self._m_probe_retries.inc()
                if self.events.enabled:
                    self.events.emit(
                        "probe_retry", cause=self._cause, oid=target,
                        attempt=attempt,
                        backoff=config.probe_timeout * (2 ** (attempt - 1)),
                    )
            self._probe_spent += 1
            try:
                return self._oracle(target)
            except ProbeTimeout:
                self.stats.probe_timeouts += 1
                self._m_probe_timeouts.inc()
                if self.events.enabled:
                    self.events.emit(
                        "probe_timeout", cause=self._cause, oid=target,
                        attempt=attempt, reason="timeout",
                    )
        return None

    def _make_constrain(self, time: float):
        if self._reachability is None:
            return None

        def constrain(target: ObjectId, region: Rect) -> Rect:
            table = self._objects
            row = table._row(target)
            return self._reachability.constrain(
                region, Point(table.x[row], table.y[row]), table.t[row], time
            )

        return constrain

    def _apply_probes(
        self, probed: dict[ObjectId, Point], time: float
    ) -> dict[ObjectId, Point]:
        """Collapse probed objects' index entries to their exact points.

        Returns each probed object's *previous* reported position (needed
        as the movement direction for the weighted-perimeter objective).
        """
        previous_positions = {}
        table = self._objects
        for target, position in probed.items():
            row = table._row(target)
            previous_positions[target] = Point(table.x[row], table.y[row])
            if target in self._failed_probes:
                # No fresh fix: keep the stale report and its time (the
                # silence keeps growing) and widen the installed region
                # to the reachability circle — conservative, never a
                # stale point the object may have left.
                self._enter_degraded(target, time)
                continue
            if self._degraded and target in self._degraded:
                self._exit_degraded(target, time)
            table.hold(row, position, self.query_index.cell_of(position), time)
            self.object_index.update(target, Rect.from_point(position))
        return previous_positions

    def _apply_shrinks(
        self, shrunk: dict[ObjectId, Rect], probed: dict[ObjectId, Point]
    ) -> dict[ObjectId, Rect]:
        """Install reachability-tightened safe regions (Section 6.1).

        Objects that were eventually probed anyway are skipped — the probe
        supersedes the shrink.  Each installed shrink is pushed to the
        client over the downlink and counted in ``safe_region_pushes``.
        Callers skip it with ``reachability_pushes`` disabled (the
        paper's semantics): nothing is installed and constrained
        decisions may go stale.
        """
        applied = {}
        for target, region in shrunk.items():
            if target in probed:
                continue
            table = self._objects
            row = table._row(target)
            table.region[row] = region
            table.uncertify(row)  # no longer the region it was issued for
            self.object_index.update(target, region)
            self.stats.safe_region_pushes += 1
            self._m_pushes.inc()
            if self.events.enabled:
                self.events.emit(
                    "shrink_push", cause=self._cause, oid=target,
                    region=(region.min_x, region.min_y,
                            region.max_x, region.max_y),
                    pos=(table.x[row], table.y[row]),
                )
            applied[target] = region
        return applied

    def _advance_clock(self, oid: ObjectId, time: float) -> float:
        """Clamp ``time`` to the server's monotonic clock.

        A reordered channel can deliver an older report after a newer
        one; accepting its earlier timestamp would run the event log and
        the per-object ``last_update_time`` backwards (corrupting
        timeline ordering and the reachability silence computation), so
        the regression is counted, evented, and clamped.
        """
        if time < self._clock:
            self.stats.time_regressions += 1
            self._m_time_regressions.inc()
            if self.events.enabled:
                self.events.set_time(self._clock)
                self.events.emit(
                    "time_regression", oid=oid, got=time, clock=self._clock
                )
            return self._clock
        self._clock = time
        return time

    def _degraded_region(self, row: int, now: float) -> Rect:
        """The widest region the object can occupy while unreachable.

        The §6.1 reachability circle around the last report, grown at the
        maximum speed for the silence duration, clipped to the workspace;
        without any speed bound the whole workspace is the only
        conservative answer.
        """
        model = self._degraded_model
        if model is None:
            return self.config.space
        table = self._objects
        held = Point(table.x[row], table.y[row])
        bbox = model.circle(held, table.t[row], now).bounding_rect()
        clipped = bbox.intersection(self.config.space)
        if clipped is None:  # held outside the workspace: clock skew
            return Rect.from_point(self.config.space.clamp_point(held))
        return clipped

    def _refresh_degraded(self, now: float) -> None:
        """Re-widen every degraded region to the current silence duration.

        The reachability circle grows while an object stays unreachable;
        a region frozen at degradation time would eventually stop
        containing the object and silently poison distance bounds.  Run
        at the top of every update/registration — one dict check when no
        object is degraded.
        """
        if not self._degraded:
            return
        table = self._objects
        for oid in self._degraded:
            row = table._row(oid)
            region = self._degraded_region(row, now)
            if region != table.region[row]:
                table.region[row] = region
                self.object_index.update(oid, region)

    def _enter_degraded(self, oid: ObjectId, now: float) -> None:
        """Mark ``oid`` unreachable and install its widened region."""
        table = self._objects
        row = table._row(oid)
        first = oid not in self._degraded
        if first:
            self._degraded[oid] = now
            self.stats.degraded_entries += 1
            self._g_degraded.set(len(self._degraded))
        region = self._degraded_region(row, now)
        table.region[row] = region
        table.uncertify(row)
        self.object_index.update(oid, region)
        if self.events.enabled:
            if first:
                self.events.emit(
                    "degraded_enter", cause=self._cause, oid=oid,
                    silent_since=table.t[row],
                )
            # ``degraded`` marks the install as a server-side widening
            # (no client push) for the diagnose containment exemption.
            self.events.emit(
                "safe_region", cause=self._cause, oid=oid,
                region=(region.min_x, region.min_y,
                        region.max_x, region.max_y),
                pos=(table.x[row], table.y[row]),
                degraded=True,
            )

    def _exit_degraded(self, oid: ObjectId, now: float) -> None:
        """A fresh position arrived for a degraded object."""
        entered = self._degraded.pop(oid, None)
        if entered is None:
            return
        self._g_degraded.set(len(self._degraded))
        if self.events.enabled:
            self.events.emit(
                "degraded_exit", cause=self._cause, oid=oid,
                duration=now - entered,
            )

    def _install_safe_region(self, oid: ObjectId, row: int, region: Rect) -> None:
        table = self._objects
        table.region[row] = region
        self.object_index.update(oid, region)
        if self.events.enabled:
            self.events.emit(
                "safe_region", cause=self._cause, oid=oid,
                region=(region.min_x, region.min_y,
                        region.max_x, region.max_y),
                pos=(table.x[row], table.y[row]),
            )

    def _objective(self, position: Point, previous: Point | None):
        return weighted_perimeter_objective(
            position, previous, self.config.steadiness
        )

    def _full_safe_region(
        self, oid: ObjectId, row: int, previous: Point | None
    ) -> Rect:
        """Recompute an object's safe region against all relevant queries.

        As a side effect, reissues the object's safe-region certificate
        for the returned region (or clears it when none applies).
        Callers always install the returned region, keeping the
        certificate in step with the installed state.
        """
        grid = self.query_index
        table = self._objects
        position = Point(table.x[row], table.y[row])
        cell_id = table.cell[row]
        cell = grid.cell_rect(cell_id)
        relevant = grid.relevant_queries(cell_id)
        region = compute_safe_region(
            oid,
            position,
            relevant,
            cell,
            self.object_index.rect_of,
            self._objective(position, previous),
            use_batch=self.config.batch_range_regions,
        )
        # Issue the certificate for ``region`` (``ObjectState.sr_cert``).
        # Recording each kNN *clearance* rather than the radius lets the
        # certificate survive radius growth up to the region's slack,
        # not just shrinks; an insider has clearance below the radius
        # and is rejected by the comparison that guards against growth.
        generation, clearances = -1, []
        for q in relevant:
            tq = type(q)
            if tq is RangeQuery:
                continue  # immutable quarantine rect
            if tq is KNNQuery:
                d = region.min_dist_to_point(q.center)
                if (
                    d <= 0.0
                    or q.radius >= d
                    or q.is_affected_by(oid, position)
                ):
                    # Closed quarantine reaching the region, a report
                    # here that would reach the query, or a degenerate
                    # zero-clearance region: no certificate.
                    break
                clearances += (q, d)
                continue
            break  # custom query type: no certificate
        else:
            generation = grid.cell_generation(cell_id)
        table.cert_gen[row] = generation
        table.clearances[row] = tuple(clearances) if generation >= 0 and relevant else None
        return region


def quarantine_breaches(server: DatabaseServer, eps: float = 1e-9) -> list:
    """Every violated quarantine invariant of the server's kNN queries.

    What the results rest on (Section 3.3): each member's region inside
    the quarantine circle, ranked members' distance intervals in order,
    and every other region that reaches the circle's bounding rectangle
    outside the open circle.
    """
    breaches = []
    region_of = server.safe_region_of
    for query in server.queries():
        if not isinstance(query, KNNQuery):
            continue
        q, radius = query.center, query.radius
        members = list(query.results)
        for oid in members:
            if Delta(q, region_of(oid)) > radius + eps:
                breaches.append((query.query_id, "member beyond circle", oid))
        if query.order_sensitive:
            for near, far in zip(members, members[1:]):
                if Delta(q, region_of(near)) > delta(q, region_of(far)) + eps:
                    breaches.append((query.query_id, "ranks overlap", near, far))
        reach = Rect(q.x - radius, q.y - radius, q.x + radius, q.y + radius)
        for oid, region in server.object_index.search_entries(reach):
            if oid not in members and delta(q, region) < radius - eps:
                breaches.append((query.query_id, "outsider inside", oid))
    return breaches


def _snapshot(query: Query):
    return query.result_snapshot()


def _event_snapshot(snapshot):
    """A result snapshot as a JSON-serialisable, deterministic value."""
    if isinstance(snapshot, (frozenset, set)):
        try:
            return sorted(snapshot)
        except TypeError:
            return sorted(snapshot, key=repr)
    if isinstance(snapshot, tuple):
        return list(snapshot)
    return snapshot

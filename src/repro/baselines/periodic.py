"""The periodic monitoring baseline PRD (Section 7).

Every ``t_prd`` time units all clients simultaneously send their current
positions; the server rebuilds its object index over the received points
and reevaluates every registered query from scratch.  The index is the
cell index the SRB server keeps (``CellObjectIndex`` over the scenario's
``M x M`` grid), not the paper's disk R*-tree (DESIGN.md).  The results
become visible ``tau`` after the synchronised send (communication delay),
so the monitored answer is always somewhat stale — the accuracy cost the
paper quantifies in Figure 7.1(a).
"""

from __future__ import annotations

from typing import Hashable

from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.geometry.rect import Rect
from repro.index.cells import CellObjectIndex
from repro.index.grid import GridIndex
from repro.mobility.waypoint import (
    RandomWaypointModel,
    total_distance_travelled,
)
from repro.obs import NULL_REGISTRY, Tracer
from repro.simulation.metrics import (
    AccuracyAccumulator,
    CommunicationCosts,
    SchemeReport,
)
from repro.simulation.scenario import Scenario
from repro.simulation.truth import GroundTruth, Snapshot
from repro.workloads.generator import generate_queries

ObjectId = Hashable


class PRDSimulation:
    """One run of periodic monitoring with period ``t_prd``."""

    def __init__(
        self,
        scenario: Scenario,
        t_prd: float,
        queries: list[Query] | None = None,
        truth: GroundTruth | None = None,
        metrics=None,
    ) -> None:
        if t_prd <= 0:
            raise ValueError("t_prd must be positive")
        self.scenario = scenario
        self.t_prd = t_prd
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self._trace = Tracer(self.metrics)
        if truth is not None:
            self.trajectories = truth.trajectories()
            self.queries = queries if queries is not None else truth.queries
            self.truth = truth
        else:
            model = RandomWaypointModel(
                scenario.mean_speed,
                scenario.mean_period,
                scenario.space,
                seed=scenario.seed,
            )
            self.trajectories = model.build(
                range(scenario.num_objects), scenario.duration
            )
            if queries is None:
                queries = generate_queries(
                    scenario.workload(), seed=scenario.seed
                )
            self.queries = queries
            self.truth = GroundTruth(self.trajectories, queries)
        self.costs = CommunicationCosts()
        self.accuracy = AccuracyAccumulator()
        self.cpu_seconds = 0.0

    def run(self) -> SchemeReport:
        """Execute the scenario and return the report."""
        scenario = self.scenario
        events: list[tuple[float, int, float | None]] = []
        t = 0.0
        while t <= scenario.duration:
            events.append((t, 0, t))  # synchronised batch update at t
            t = round(t + self.t_prd, 9)
        for s in scenario.sample_times():
            events.append((s, 1, None))
        events.sort()

        visible: dict[str, Snapshot] | None = None
        pending: list[tuple[float, dict[str, Snapshot]]] = []
        for when, kind, batch_time in events:
            if kind == 0:
                self.costs.updates += scenario.num_objects
                results = self._evaluate_batch(batch_time)
                pending.append((batch_time + scenario.delay, results))
            else:
                while pending and pending[0][0] <= when:
                    visible = pending.pop(0)[1]
                self._sample(when, visible)

        total_distance = total_distance_travelled(
            self.trajectories.values(), 0.0, scenario.duration
        )
        return SchemeReport(
            scheme=f"PRD({self.t_prd:g})",
            num_objects=scenario.num_objects,
            num_queries=len(self.queries),
            duration=scenario.duration,
            accuracy=self.accuracy.value,
            costs=self.costs,
            cpu_seconds=self.cpu_seconds,
            total_distance=total_distance,
            metrics=self.metrics.to_dict() if self.metrics.enabled else {},
        )

    def _evaluate_batch(self, t: float) -> dict[str, Snapshot]:
        """Rebuild the object index and reevaluate every query at time ``t``.

        Mirrors the paper's PRD server: a fresh object index over the
        reported points per update instant, then a from-scratch evaluation
        of each query against it.  Wall time is charged to the scheme's
        CPU cost.
        """
        positions = {
            oid: self.trajectories[oid].position_at(t)
            for oid in self.trajectories
        }
        with self._trace.span("prd.evaluate_batch"):
            with self._trace.span("rebuild_index"):
                scenario = self.scenario
                index = CellObjectIndex(
                    GridIndex(scenario.grid_m, scenario.space),
                    self.trajectories,
                )
                index.load(
                    (oid, Rect.from_point(p)) for oid, p in positions.items()
                )
            results: dict[str, Snapshot] = {}
            with self._trace.span("reevaluate"):
                for query in self.queries:
                    if isinstance(query, RangeQuery):
                        results[query.query_id] = frozenset(
                            index.search(query.rect)
                        )
                    elif isinstance(query, KNNQuery):
                        nearest = []
                        for oid, _, _ in index.nearest_iter(query.center):
                            nearest.append(oid)
                            if len(nearest) == query.k:
                                break
                        if query.order_sensitive:
                            results[query.query_id] = tuple(nearest)
                        else:
                            results[query.query_id] = frozenset(nearest)
                    else:  # pragma: no cover
                        raise TypeError(
                            f"unsupported query: {type(query).__name__}"
                        )
        self.cpu_seconds = self._trace.cpu_seconds
        return results

    def _sample(self, t: float, visible: dict[str, Snapshot] | None) -> None:
        true_results = self.truth.evaluate_at(t)
        for query in self.queries:
            monitored = None if visible is None else visible.get(query.query_id)
            self.accuracy.record(monitored == true_results[query.query_id])

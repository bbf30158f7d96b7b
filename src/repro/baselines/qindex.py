"""The Q-index baseline (Prabhakar et al., IEEE ToC 2002).

The paper's related work: periodic monitoring where the *queries* are
indexed instead of the objects.  Every period each moved object's old and
new positions are looked up in an index over the query rectangles,
flipping memberships incrementally — cheaper than PRD's rebuild-everything
server when objects outnumber queries.  Prabhakar et al. index the queries
in an R-tree; here the index is the SRB server's ``M x M`` query grid
(``GridIndex``), whose two cells hold every query that can contain either
position.  Q-index supports range queries only; for the mixed workload the
kNN queries are evaluated per period against an *incrementally
maintained* object index on the same grid (``CellObjectIndex``, no
per-period rebuild), which is the natural extension and keeps the
comparison fair.

Communication behaviour is identical to PRD (synchronised client updates
every ``t_prd``), so accuracy matches PRD's; the scheme exists to compare
server CPU profiles (Figures 7.2 / 7.3).
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


class QIndexSimulation:
    """Periodic monitoring against an index over the queries."""

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
        self.range_queries = [
            q for q in self.queries if isinstance(q, RangeQuery)
        ]
        self.knn_queries = [
            q for q in self.queries if isinstance(q, KNNQuery)
        ]
        self.costs = CommunicationCosts()
        self.accuracy = AccuracyAccumulator()
        self.cpu_seconds = 0.0

    # ------------------------------------------------------------------
    def run(self) -> SchemeReport:
        scenario = self.scenario
        # One-off setup: the query grid and the initial object index.
        query_index = GridIndex(scenario.grid_m, scenario.space)
        for query in self.range_queries:
            query_index.insert(query)
        positions = {
            oid: tr.position_at(0.0) for oid, tr in self.trajectories.items()
        }
        object_index = CellObjectIndex(query_index, self.trajectories)
        memberships: dict[str, set[ObjectId]] = {
            q.query_id: set() for q in self.range_queries
        }
        for oid, p in positions.items():
            object_index.insert(oid, Rect.from_point(p))
            for query in query_index.queries_at(p):
                if query.rect.contains_point(p):
                    memberships[query.query_id].add(oid)

        events: list[tuple[float, int, float | None]] = []
        t = 0.0
        while t <= scenario.duration:
            events.append((t, 0, t))
            t = round(t + self.t_prd, 9)
        for s in scenario.sample_times():
            events.append((s, 1, None))
        events.sort()

        visible: dict[str, Snapshot] | None = None
        pending: list[tuple[float, dict[str, Snapshot]]] = []
        for when, kind, batch_time in events:
            if kind == 0:
                self.costs.updates += scenario.num_objects
                results = self._evaluate_batch(
                    batch_time, positions, object_index, query_index,
                    memberships,
                )
                pending.append((batch_time + scenario.delay, results))
            else:
                while pending and pending[0][0] <= when:
                    visible = pending.pop(0)[1]
                self._sample(when, visible)

        total_distance = total_distance_travelled(
            self.trajectories.values(), 0.0, scenario.duration
        )
        return SchemeReport(
            scheme=f"QIDX({self.t_prd:g})",
            num_objects=scenario.num_objects,
            num_queries=len(self.queries),
            duration=scenario.duration,
            accuracy=self.accuracy.value,
            costs=self.costs,
            cpu_seconds=self.cpu_seconds,
            total_distance=total_distance,
            metrics=self.metrics.to_dict() if self.metrics.enabled else {},
        )

    def _evaluate_batch(
        self, t, positions, object_index, query_index, memberships
    ) -> dict[str, Snapshot]:
        new_positions = {
            oid: self.trajectories[oid].position_at(t)
            for oid in self.trajectories
        }
        with self._trace.span("qidx.evaluate_batch"):
            # Range queries: look each *moved* object up in the query
            # grid; the cells of its old and new positions hold every
            # query that can contain either.
            with self._trace.span("probe_moved"):
                for oid, new in new_positions.items():
                    old = positions[oid]
                    if new == old:
                        continue
                    affected = (
                        query_index.queries_at(old)
                        | query_index.queries_at(new)
                    )
                    for query in affected:
                        if query.rect.contains_point(new):
                            memberships[query.query_id].add(oid)
                        else:
                            memberships[query.query_id].discard(oid)
                    # The object index is maintained incrementally (no
                    # rebuild).
                    object_index.update(oid, Rect.from_point(new))
                    positions[oid] = new

            results: dict[str, Snapshot] = {
                qid: frozenset(members) for qid, members in memberships.items()
            }
            # kNN queries: best-first over the incrementally updated index.
            with self._trace.span("reevaluate"):
                for query in self.knn_queries:
                    nearest = []
                    for oid, _, _ in object_index.nearest_iter(query.center):
                        nearest.append(oid)
                        if len(nearest) == query.k:
                            break
                    if query.order_sensitive:
                        results[query.query_id] = tuple(nearest)
                    else:
                        results[query.query_id] = frozenset(nearest)
        self.cpu_seconds = self._trace.cpu_seconds
        return results

    def _sample(self, t: float, visible: dict[str, Snapshot] | None) -> None:
        true_results = self.truth.evaluate_at(t)
        for query in self.queries:
            monitored = None if visible is None else visible.get(query.query_id)
            self.accuracy.record(monitored == true_results[query.query_id])

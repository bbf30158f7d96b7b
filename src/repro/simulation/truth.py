"""Ground truth: exact query results from exact object positions.

The OPT scheme of Section 7 has perfect knowledge — it *is* the true
result series.  This module computes, at each sampling checkpoint, the
exact result of every query from the exact trajectory positions; the
series serves both as the accuracy yardstick for SRB / PRD and as the
basis of the OPT communication-cost lower bound.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.kernels import Kernels
from repro.mobility.waypoint import Fleet, Trajectory, positions_at

ObjectId = Hashable
Snapshot = frozenset | tuple


class GroundTruth:
    """Exact evaluation of a fixed query set over exact positions.

    Each checkpoint answers one query at a time over the position
    columns: a range query is one closed-rectangle mask, a kNN query one
    ``Kernels.top_k_rows`` selection over the rows in object-id order, so
    its ``(d2, row)`` order is the ranking key ``(d2, oid)`` of
    :mod:`repro.geometry.ties`.  Memory stays O(N) per query rather than
    O(W x N) per checkpoint.

    ``trajectories`` is kept as given: a ``Fleet`` or any mapping of
    objects with ``position_at``.  A ``Fleet`` (ids ``0..N-1``) is in id
    order already; any other mapping is read in id order.
    """

    def __init__(
        self,
        trajectories: Mapping[ObjectId, Trajectory],
        queries: Sequence[Query],
    ) -> None:
        self._trajectories = trajectories
        ids = list(trajectories)
        #: Rows in object-id order, or ``None`` when they already are.
        self._order = None if ids == sorted(ids) else np.array(
            sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp
        )
        self.queries = list(queries)
        self.kernels = Kernels()
        self._memo: dict[float, dict[str, Snapshot]] = {}

    def trajectories(self) -> Mapping[ObjectId, Trajectory]:
        """The mapping of object trajectories this truth was built over."""
        return self._trajectories

    def positions_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays (xs, ys) aligned with the object-id order:
        one columnar pass over a ``Fleet``, else one read per object."""
        if isinstance(self._trajectories, Fleet):
            return positions_at(self._trajectories.values(), t)
        points = [item.position_at(t) for item in self._trajectories.values()]
        return np.array([p.x for p in points]), np.array([p.y for p in points])

    def evaluate_at(self, t: float) -> dict[str, Snapshot]:
        """True result snapshot of every query at time ``t``.

        Snapshots use the same types as ``Query.result_snapshot`` so they
        compare directly against monitored results: frozensets for range
        and order-insensitive kNN queries, ordered tuples for
        order-sensitive kNN queries.  Evaluations are memoised per
        timestamp so the schemes sharing one truth (SRB / PRD / OPT) pay
        for each checkpoint once.
        """
        cached = self._memo.get(t)
        if cached is not None:
            return cached
        xs, ys = self.positions_at(t)
        ids = list(self._trajectories)
        order = self._order
        if order is not None:
            xs, ys = xs[order], ys[order]
            ids = [ids[row] for row in order.tolist()]
        results: dict[str, Snapshot] = {}
        for query in self.queries:
            if isinstance(query, RangeQuery):
                r = query.rect
                rows = np.flatnonzero(
                    (xs >= r.min_x) & (xs <= r.max_x)
                    & (ys >= r.min_y) & (ys <= r.max_y)
                )
                results[query.query_id] = frozenset(
                    ids[row] for row in rows.tolist()
                )
            elif isinstance(query, KNNQuery):
                found = tuple(
                    ids[row] for row in self.kernels.top_k_rows(
                        xs, ys, query.center.x, query.center.y, query.k
                    )
                )
                results[query.query_id] = (
                    found if query.order_sensitive else frozenset(found)
                )
            else:  # pragma: no cover
                raise TypeError(
                    f"unsupported query type: {type(query).__name__}"
                )
        self._memo[t] = results
        return results


def opt_update_count(
    previous: Mapping[str, Snapshot] | None,
    current: Mapping[str, Snapshot],
    queries: Sequence[Query],
) -> int:
    """Source-initiated updates OPT sends between two checkpoints.

    An OPT client reports exactly when its own movement changes some
    query's result.  Between consecutive (fine-grained) checkpoints:

    * for a range query, every object whose membership flipped crossed
      the boundary itself — one update each;
    * for a kNN query, every membership change is one update, and every
      *order inversion* among surviving results (a pair whose relative
      order flipped) is one distance crossing — caused by one mover, so
      one update each.  A plain "did the tuple change" test would
      undercount rapid rank churn and flatter OPT.
    """
    if previous is None:
        return 0
    updates = 0
    for query in queries:
        before = previous[query.query_id]
        after = current[query.query_id]
        if isinstance(query, RangeQuery) or isinstance(before, frozenset):
            updates += len(before ^ after)
        else:
            before_set = frozenset(before)
            after_set = frozenset(after)
            updates += len(before_set ^ after_set)
            survivors_before = [o for o in before if o in after_set]
            rank_after = {o: i for i, o in enumerate(after)}
            updates += _inversions(
                [rank_after[o] for o in survivors_before]
            )
    return updates


def _inversions(sequence: list[int]) -> int:
    """Number of out-of-order pairs (insertion-count merge is overkill here)."""
    count = 0
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] > sequence[j]:
                count += 1
    return count

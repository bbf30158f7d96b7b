"""Incremental reevaluation of affected queries (Section 4.3).

Range queries flip the updated object's membership directly.  An
order-sensitive kNN query distinguishes three cases by where the updated
location ``p`` and the previously reported location ``p_lst`` fall with
respect to the quarantine circle; each case needs at most one probe.
Order-insensitive kNN queries are reevaluated from scratch (no strict
ordering exists to patch incrementally).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.core.evaluation import (
    ConstrainFn,
    EvaluationResult,
    ProbeFn,
    evaluate_knn,
)
from repro.core.queries import KNNQuery, RangeQuery
from repro.geometry.distances import Delta, delta
from repro.geometry.point import Point
from repro.geometry.rect import Rect

ObjectId = Hashable
SrLookup = Callable[[ObjectId], Rect]


@dataclass(slots=True)
class ReevaluationOutcome:
    """What one query's incremental reevaluation did."""

    changed: bool
    probed: dict[ObjectId, Point] = field(default_factory=dict)
    shrunk: dict[ObjectId, Rect] = field(default_factory=dict)
    #: Whether the quarantine area changed (the grid index must be updated).
    quarantine_changed: bool = False
    #: Which reevaluation path ran (paper's Section 4.3 case analysis);
    #: recorded on ``result_change`` events for post-hoc diagnosis.
    case: str = ""


def reevaluate_range(
    query: RangeQuery, oid: ObjectId, p: Point
) -> ReevaluationOutcome:
    """Flip membership of ``oid`` in a range query after its update to ``p``."""
    inside = query.rect.contains_point(p)
    if inside and oid not in query.results:
        query.results.add(oid)
        return ReevaluationOutcome(changed=True, case="range_enter")
    if not inside and oid in query.results:
        query.results.discard(oid)
        return ReevaluationOutcome(changed=True, case="range_leave")
    return ReevaluationOutcome(changed=False, case="range_noop")


def reevaluate_knn(
    query: KNNQuery,
    oid: ObjectId,
    p: Point,
    p_lst: Point | None,
    index,
    probe: ProbeFn,
    sr_of: SrLookup,
    constrain: ConstrainFn | None = None,
) -> ReevaluationOutcome:
    """Incrementally reevaluate a kNN query for an update of ``oid`` to ``p``.

    The updated object's entry in ``index`` must already be its exact
    point (the server collapses the safe region on receipt of the update),
    so ``sr_of(oid)`` is point-sized and distance bounds are exact.
    """
    if not query.order_sensitive:
        return _reevaluate_unordered(query, index, probe, constrain)

    in_new = query.quarantine_contains(p)
    was_result = oid in query.results

    if was_result and not in_new:
        return _case_leaves(query, oid, index, probe, constrain)
    if in_new and not was_result:
        return _case_enters(query, oid, p, probe, sr_of, constrain)
    if in_new and was_result:
        return _case_moves_within(query, oid, p, probe, sr_of, constrain)
    # p and p_lst both outside and oid is not a result: nothing to do
    # (possible when the grid buckets over-approximate the affected set).
    return ReevaluationOutcome(changed=False, case="knn_noop")


def _case_leaves(
    query: KNNQuery,
    oid: ObjectId,
    index,
    probe: ProbeFn,
    constrain: ConstrainFn | None,
) -> ReevaluationOutcome:
    """Case 1: a result left the quarantine area; find the new k-th NN.

    A 1NN search excluding the *remaining* results fills the freed slot;
    the leaver itself stays searchable — it may still be the k-th NN when
    the quarantine circle was conservative.
    """
    old_snapshot = query.result_snapshot()
    remaining = [other for other in query.results if other != oid]
    remaining_set = set(remaining)
    replacement: EvaluationResult = evaluate_knn(
        index,
        query.center,
        1,
        probe,
        order_sensitive=True,
        exclude=lambda candidate: candidate in remaining_set,
        constrain=constrain,
    )
    query.results = remaining + replacement.results
    query.radius = replacement.radius
    return ReevaluationOutcome(
        changed=query.result_snapshot() != old_snapshot,
        probed=replacement.probed,
        shrunk=replacement.shrunk,
        quarantine_changed=True,
        case="knn_leaves",
    )


def _case_enters(
    query: KNNQuery,
    oid: ObjectId,
    p: Point,
    probe: ProbeFn,
    sr_of: SrLookup,
    constrain: ConstrainFn | None,
) -> ReevaluationOutcome:
    """Case 2: a non-result entered the quarantine area.

    Its exact distance is located within the strictly ordered interval
    sequence of the current results, probing at most one of them; the old
    k-th NN is dropped when the newcomer takes a slot.  When the newcomer
    lands beyond the old k-th NN it stays a non-result and the quarantine
    shrinks to keep it outside.
    """
    old_snapshot = query.result_snapshot()
    outcome = ReevaluationOutcome(
        changed=False, quarantine_changed=True, case="knn_enters"
    )
    rank = _locate_rank(query, oid, p, probe, sr_of, constrain, outcome)
    d = query.center.distance_to(p)

    if len(query.results) < query.k:
        # Data underflow: every object in range is a result; the workspace-
        # wide quarantine radius stays as it is.
        query.results.insert(rank, oid)
        outcome.changed = query.result_snapshot() != old_snapshot
        outcome.quarantine_changed = False
        return outcome

    if rank >= len(query.results):
        # Beyond every current result: shrink the quarantine circle so the
        # non-result invariant (objects outside) is restored.
        kth_max = _max_dist(query, query.results[-1], sr_of, outcome)
        query.radius = (kth_max + max(d, kth_max)) / 2.0
        outcome.changed = False
        return outcome

    dropped = query.results[-1]
    query.results = (
        query.results[:rank] + [oid] + query.results[rank:-1]
    )
    new_kth_max = _max_dist(query, query.results[-1], sr_of, outcome)
    dropped_min = _min_dist(query, dropped, sr_of, outcome)
    # Never past the old radius: a dropped neighbour probed and caught
    # beyond the old circle (a stray between polls) would otherwise grow
    # it over outsiders nobody probed.  Its own ingested report handles
    # it as ``knn_leaves``.
    query.radius = min(
        query.radius, (new_kth_max + max(dropped_min, new_kth_max)) / 2.0
    )
    outcome.changed = query.result_snapshot() != old_snapshot
    return outcome


def _case_moves_within(
    query: KNNQuery,
    oid: ObjectId,
    p: Point,
    probe: ProbeFn,
    sr_of: SrLookup,
    constrain: ConstrainFn | None,
) -> ReevaluationOutcome:
    """Case 3: a result moved within the quarantine area (rank may change).

    The object is pulled out of the ordered sequence and re-located as in
    case 2; nobody is dropped and the quarantine radius is unchanged.
    """
    old_snapshot = query.result_snapshot()
    outcome = ReevaluationOutcome(changed=False, case="knn_moves_within")
    query.results = [other for other in query.results if other != oid]
    rank = _locate_rank(query, oid, p, probe, sr_of, constrain, outcome)
    query.results.insert(rank, oid)
    outcome.changed = query.result_snapshot() != old_snapshot
    return outcome


def _locate_rank(
    query: KNNQuery,
    oid: ObjectId,
    p: Point,
    probe: ProbeFn,
    sr_of: SrLookup,
    constrain: ConstrainFn | None,
    outcome: ReevaluationOutcome,
) -> int:
    """Index at which ``oid`` (at exact distance ``d(q, p)``) ranks.

    Walks the strictly ordered distance intervals of the current results;
    when ``d`` falls inside some interval ``[delta_i, Delta_i]`` the owner
    is probed (after the optional reachability tightening) to break the
    tie — at most one probe, because intervals are pairwise disjoint.
    """
    q = query.center
    d = q.distance_to(p)
    for rank, other in enumerate(query.results):
        region = sr_of(other)
        lo = delta(q, region)
        hi = Delta(q, region)
        if constrain is not None and lo <= d <= hi:
            tightened = constrain(other, region)
            if tightened != region:
                outcome.shrunk[other] = tightened
                region = tightened
                lo = delta(q, region)
                hi = Delta(q, region)
        if d < lo:
            return rank
        if d <= hi:
            position = probe(other)
            outcome.probed[other] = position
            outcome.shrunk.pop(other, None)
            if d < q.distance_to(position):
                return rank
    return len(query.results)


def _reevaluate_unordered(
    query: KNNQuery,
    index,
    probe: ProbeFn,
    constrain: ConstrainFn | None,
) -> ReevaluationOutcome:
    """Order-insensitive kNN queries are reevaluated as new (Section 4.3)."""
    old_snapshot = query.result_snapshot()
    fresh = evaluate_knn(
        index,
        query.center,
        query.k,
        probe,
        order_sensitive=False,
        constrain=constrain,
    )
    query.results = fresh.results
    query.radius = fresh.radius
    return ReevaluationOutcome(
        changed=query.result_snapshot() != old_snapshot,
        probed=fresh.probed,
        shrunk=fresh.shrunk,
        quarantine_changed=True,
        case="knn_unordered",
    )


def _region_of(
    oid: ObjectId, sr_of: SrLookup, outcome: ReevaluationOutcome
) -> Rect:
    """Freshest region known for ``oid``: probe > shrink > stored region.

    Probes made during this reevaluation are not yet reflected in the
    object index (the server applies them afterwards), so distance bounds
    must consult the outcome first.
    """
    position = outcome.probed.get(oid)
    if position is not None:
        return Rect.from_point(position)
    return outcome.shrunk.get(oid, sr_of(oid))


def _max_dist(
    query: KNNQuery, oid: ObjectId, sr_of: SrLookup, outcome: ReevaluationOutcome
) -> float:
    return Delta(query.center, _region_of(oid, sr_of, outcome))


def _min_dist(
    query: KNNQuery, oid: ObjectId, sr_of: SrLookup, outcome: ReevaluationOutcome
) -> float:
    return delta(query.center, _region_of(oid, sr_of, outcome))

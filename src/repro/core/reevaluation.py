"""Incremental reevaluation of affected queries (Section 4.3).

Range queries flip the updated object's membership directly.  An
order-sensitive kNN query distinguishes three cases by whether the
updated object is a result and where its location ``p`` falls with
respect to the quarantine circle; each case needs at most one probe, and
ranks by the key of :mod:`repro.geometry.ties`.  Order-insensitive kNN
queries are reevaluated from scratch (no strict ordering exists to patch
incrementally), as is an ordered member that lands on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable

from repro.core.evaluation import (
    ConstrainFn,
    EvaluationResult,
    ProbeFn,
    evaluate_knn,
)
from repro.geometry.distances import Delta, delta
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.ties import ranks_before

if TYPE_CHECKING:  # the query classes call in here
    from repro.core.queries import KNNQuery, RangeQuery

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
        return _reevaluate_all(query, index, probe, constrain, "knn_unordered")

    d = query.center.distance_to(p)
    r = query.radius
    if oid in query.results:
        if d > r:
            return _case_leaves(query, oid, index, probe, constrain)
        if d == r:
            # Case 3 on the circle: the member may tie the next
            # non-member, whose rank case 3 never reads, so rank all.
            return _reevaluate_all(
                query, index, probe, constrain, "knn_moves_within"
            )
        return _case_moves_within(query, oid, p, probe, sr_of, constrain)
    if d <= r:
        return _case_enters(query, oid, p, probe, sr_of, constrain)
    # p outside and oid is not a result: ``is_affected_by`` is false, so
    # only a caller that skips it lands here.
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
    """Index at which ``oid`` (key ``(d2(q, p), oid)``) ranks.

    Walks the ordered key intervals of the current results; when the key
    falls inside some interval ``[(lo_i, o_i), (hi_i, o_i)]`` the owner is
    probed (after the optional reachability tightening) to break the tie
    — at most one probe, because intervals are pairwise disjoint.
    """
    q = query.center
    d2 = q.squared_distance_to(p)
    for rank, other in enumerate(query.results):
        region = sr_of(other)
        lo = region.min_d2_to_point(q)
        hi = region.max_d2_to_point(q)
        if constrain is not None and not (
            ranks_before(d2, oid, lo, other) or ranks_before(hi, other, d2, oid)
        ):
            tightened = constrain(other, region)
            if tightened != region:
                outcome.shrunk[other] = tightened
                lo = tightened.min_d2_to_point(q)
                hi = tightened.max_d2_to_point(q)
        if ranks_before(d2, oid, lo, other):
            return rank
        if not ranks_before(hi, other, d2, oid):
            position = probe(other)
            outcome.probed[other] = position
            outcome.shrunk.pop(other, None)
            if ranks_before(d2, oid, q.squared_distance_to(position), other):
                return rank
    return len(query.results)


def _reevaluate_all(
    query: KNNQuery,
    index,
    probe: ProbeFn,
    constrain: ConstrainFn | None,
    case: str,
) -> ReevaluationOutcome:
    """Reevaluate as new: every report of an order-insensitive query (no
    strict ordering exists to patch incrementally, Section 4.3), and an
    ordered member landing on the circle."""
    old_snapshot = query.result_snapshot()
    fresh = evaluate_knn(
        index,
        query.center,
        query.k,
        probe,
        order_sensitive=query.order_sensitive,
        constrain=constrain,
    )
    query.results = fresh.results
    query.radius = fresh.radius
    return ReevaluationOutcome(
        changed=query.result_snapshot() != old_snapshot,
        probed=fresh.probed,
        shrunk=fresh.shrunk,
        quarantine_changed=True,
        case=case,
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

"""Evaluation of new queries over safe regions (Section 4, Algorithm 2).

Objects are represented by their safe regions, so exact results may be
undecidable without asking some objects for their exact positions.  The
*lazy probe* technique defers every probe until the evaluation cannot
continue, which makes each issued probe mandatory.

The optional ``constrain`` hook implements the maximum-speed enhancement
(Section 6.1): before a probe is issued, the candidate's region is
intersected with the bounding box of its reachability circle, hopefully
resolving the ambiguity for free.  Whenever a constrained region is used
to *decide* something, the tightened rectangle is recorded in ``shrunk``
so the server can install it as the object's stored safe region (keeping
the quarantine invariants exact) and push it to the client on the cheap
downlink.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.ties import ranks_before

ObjectId = Hashable
ProbeFn = Callable[[ObjectId], Point]
ConstrainFn = Callable[[ObjectId, Rect], Rect]

#: Result geometry: the object's region, or its exact point after a probe.
Geometry = Rect | Point

_WORKSPACE_DIAMETER = math.sqrt(2.0)


@dataclass(slots=True)
class EvaluationResult:
    """Outcome of evaluating one query over safe regions."""

    #: Result object ids; in ascending distance order for kNN queries.
    results: list[ObjectId]
    #: Quarantine-circle radius (kNN only; 0.0 for range queries).
    radius: float = 0.0
    #: Objects probed during evaluation and their exact positions.
    probed: dict[ObjectId, Point] = field(default_factory=dict)
    #: Objects whose stored safe region must shrink to the recorded
    #: rectangle because a reachability-constrained region was decisive.
    shrunk: dict[ObjectId, Rect] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Range queries (Section 4.1)
# ---------------------------------------------------------------------------
def evaluate_range(
    index,
    rect: Rect,
    probe: ProbeFn,
    constrain: ConstrainFn | None = None,
    kernels=None,
) -> EvaluationResult:
    """Evaluate a new range query over safe regions.

    A safe region fully inside the query rectangle makes its object a
    result outright; a partial overlap requires a probe (possibly avoided
    by the reachability constraint).

    With ``kernels``, the candidate entries are materialized once and the
    containment test (result outright vs. needs a closer look) runs as a
    single batch pass over the region columns; the per-object probe /
    constrain logic is untouched.  Safe because probes never mutate the
    index mid-evaluation — the server applies probe results afterwards.
    """
    outcome = EvaluationResult(results=[])
    if kernels is not None:
        entries = list(index.search_entries(rect))
        if not entries:
            return outcome
        contained = kernels.rects_contained_in(
            [region.min_x for _, region in entries],
            [region.min_y for _, region in entries],
            [region.max_x for _, region in entries],
            [region.max_y for _, region in entries],
            rect,
        )
        for (oid, region), inside in zip(entries, contained):
            if inside:
                outcome.results.append(oid)
            else:
                _resolve_partial_overlap(
                    rect, oid, region, probe, constrain, outcome
                )
        return outcome
    for oid, region in index.search_entries(rect):
        if rect.contains_rect(region):
            outcome.results.append(oid)
        else:
            _resolve_partial_overlap(rect, oid, region, probe, constrain, outcome)
    return outcome


def _resolve_partial_overlap(
    rect: Rect,
    oid: ObjectId,
    region: Rect,
    probe: ProbeFn,
    constrain: ConstrainFn | None,
    outcome: EvaluationResult,
) -> None:
    """Decide one partially-overlapping candidate: constrain, else probe."""
    if constrain is not None:
        tightened = constrain(oid, region)
        if tightened != region:
            if rect.contains_rect(tightened):
                outcome.results.append(oid)
                outcome.shrunk[oid] = tightened
                return
            if not rect.intersects(tightened):
                outcome.shrunk[oid] = tightened
                return
    position = probe(oid)
    outcome.probed[oid] = position
    if rect.contains_point(position):
        outcome.results.append(oid)


# ---------------------------------------------------------------------------
# kNN queries (Section 4.2, Algorithm 2)
# ---------------------------------------------------------------------------
class _Candidate:
    """A queue element: an object known by region or by exact point.

    One instance per queue element on the kNN hot path, so the key
    bounds and the point/region flag are computed once here.  ``lo`` and
    ``hi`` bound the squared distance: the candidate enters the queue at
    key ``(lo, oid)`` and is confirmed on ``(hi, oid)``
    (:mod:`repro.geometry.ties`); a point has ``lo == hi``.
    """

    __slots__ = ("oid", "geometry", "lo", "hi", "constrained", "is_point")

    def __init__(
        self, oid: ObjectId, geometry: Geometry, q: Point, constrained: bool
    ) -> None:
        self.oid = oid
        self.geometry = geometry
        self.constrained = constrained
        is_point = isinstance(geometry, Point)
        self.is_point = is_point
        if is_point:
            d2 = q.squared_distance_to(geometry)
            self.lo = d2
            self.hi = d2
        else:
            self.lo = geometry.min_d2_to_point(q)
            self.hi = geometry.max_d2_to_point(q)

    def before(self, other: "_Candidate") -> bool:
        """Whether this candidate surely ranks before ``other``: its upper
        key ``(hi, oid)`` is below the other's lower key ``(lo, oid)``."""
        return ranks_before(self.hi, self.oid, other.lo, other.oid)


class _MergedQueue:
    """Min-queue merging the index's best-first stream with re-pushed items.

    Both are ordered by the lower key ``(lo, oid)``; ids are unique in
    the queue, so no two entries tie.
    """

    def __init__(self, stream: Iterator[tuple[ObjectId, Rect, float]], q: Point):
        self._stream = stream
        self._q = q
        self._heap: list[tuple[float, ObjectId, _Candidate]] = []
        self._buffered: tuple[float, ObjectId, _Candidate] | None = None
        self._advance_stream()

    def _advance_stream(self) -> None:
        nxt = next(self._stream, None)
        if nxt is None:
            self._buffered = None
        else:
            oid, rect, _ = nxt
            candidate = _Candidate(oid, rect, self._q, constrained=False)
            self._buffered = (candidate.lo, oid, candidate)

    def push(self, candidate: _Candidate) -> None:
        heapq.heappush(self._heap, (candidate.lo, candidate.oid, candidate))

    def pop(self) -> _Candidate | None:
        """Pop the candidate of least lower key, or ``None``."""
        heap, buffered = self._heap, self._buffered
        if heap and (buffered is None or heap[0] < buffered):
            return heapq.heappop(heap)[2]
        if buffered is None:
            return None
        self._advance_stream()
        return buffered[2]


def evaluate_knn(
    index,
    q: Point,
    k: int,
    probe: ProbeFn,
    order_sensitive: bool = True,
    exclude: Callable[[ObjectId], bool] | None = None,
    constrain: ConstrainFn | None = None,
) -> EvaluationResult:
    """Evaluate a new kNN query over safe regions (Algorithm 2).

    Returns the k objects of least key ``(squared distance, oid)``
    (:mod:`repro.geometry.ties`; in key order for the order-sensitive
    variant), the quarantine radius — the midpoint of ``Delta(q, o_k)``
    and ``delta(q, o_{k+1})`` over the geometries the evaluation ended
    with — and the probes issued.  A region is confirmed only when its
    upper key is below the next candidate's lower key, so equal
    distances are probed and settled by id.  ``exclude`` omits objects
    from the search (used by reevaluation case 1).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if order_sensitive:
        return _evaluate_knn_ordered(index, q, k, probe, exclude, constrain)
    return _evaluate_knn_unordered(index, q, k, probe, exclude, constrain)


def _evaluate_knn_ordered(
    index,
    q: Point,
    k: int,
    probe: ProbeFn,
    exclude: Callable[[ObjectId], bool] | None,
    constrain: ConstrainFn | None,
) -> EvaluationResult:
    queue = _MergedQueue(index.nearest_iter(q, exclude=exclude), q)
    outcome = EvaluationResult(results=[])
    confirmed: list[_Candidate] = []
    held: _Candidate | None = None
    follower: _Candidate | None = None

    while len(confirmed) < k:
        current = queue.pop()
        if current is None:
            break
        if held is not None:
            if not held.before(current) and constrain is not None:
                # Maximum-speed enhancement: tighten before probing.
                if not held.constrained and not held.is_point:
                    held = _constrain_candidate(held, q, constrain, outcome)
                if (
                    not held.before(current)
                    and not current.constrained
                    and not current.is_point
                ):
                    tightened = _constrain_candidate(current, q, constrain, outcome)
                    if tightened.lo > current.lo:
                        # Its lower bound rose: re-queue under the new key.
                        queue.push(tightened)
                        continue
                    current = tightened
            if not held.before(current):
                # Still ambiguous: probe the held object (lazy probe) and
                # feed both contenders back through the queue.
                position = probe(held.oid)
                outcome.probed[held.oid] = position
                outcome.shrunk.pop(held.oid, None)
                queue.push(_Candidate(held.oid, position, q, constrained=True))
                queue.push(current)
                held = None
                continue
            confirmed.append(held)
            held = None
            if len(confirmed) == k:
                follower = current
                break
        if current.is_point:
            confirmed.append(current)
        else:
            held = current

    if len(confirmed) < k and held is not None:
        # Queue exhausted: the held object is the only candidate left.
        confirmed.append(held)
        held = None

    outcome.results = [candidate.oid for candidate in confirmed]
    outcome.radius = _quarantine_radius(confirmed, follower, queue, k)
    return outcome


def _constrain_candidate(
    candidate: _Candidate,
    q: Point,
    constrain: ConstrainFn,
    outcome: EvaluationResult,
) -> _Candidate:
    tightened_rect = constrain(candidate.oid, candidate.geometry)
    if tightened_rect == candidate.geometry:
        candidate.constrained = True
        return candidate
    outcome.shrunk[candidate.oid] = tightened_rect
    return _Candidate(candidate.oid, tightened_rect, q, constrained=True)


def _quarantine_radius(
    confirmed: list[_Candidate],
    follower: _Candidate | None,
    queue: _MergedQueue,
    k: int,
) -> float:
    """Midpoint radius between the k-th NN and the next candidate.

    ``follower`` is the next candidate if the evaluation already popped
    it, else the queue's next.  When fewer than ``k`` objects exist the
    quarantine area covers the whole workspace so that any newly
    appearing candidate is noticed.
    """
    if len(confirmed) < k:
        return _WORKSPACE_DIAMETER
    kth = confirmed[-1].hi
    if follower is None:
        follower = queue.pop()
        if follower is None:
            return math.sqrt(kth)
    return (math.sqrt(kth) + math.sqrt(max(follower.lo, kth))) / 2.0


def _evaluate_knn_unordered(
    index,
    q: Point,
    k: int,
    probe: ProbeFn,
    exclude: Callable[[ObjectId], bool] | None,
    constrain: ConstrainFn | None,
) -> EvaluationResult:
    """Order-insensitive variant: up to ``k`` objects may be held at once.

    Soundness rests on the invariant ``|confirmed| + |held| <= k``: a held
    candidate ``c`` whose upper key is below the incoming candidate's
    lower key is then surely a member of the k-nearest *set* — at most
    ``k - 1`` other candidates (the rest of confirmed + held) can
    possibly beat it, and everything still queued ranks after it.  When
    the invariant would be violated by holding one more candidate, the
    first held object is probed (after the optional reachability
    tightening) — fewer probes than the order-sensitive variant, which
    must also fix the ordering.
    """
    queue = _MergedQueue(index.nearest_iter(q, exclude=exclude), q)
    outcome = EvaluationResult(results=[])
    confirmed: list[_Candidate] = []
    held: list[_Candidate] = []

    while len(confirmed) < k:
        current = queue.pop()
        if current is None:
            break
        still_held = []
        for candidate in held:
            if len(confirmed) < k and candidate.before(current):
                confirmed.append(candidate)
            else:
                still_held.append(candidate)
        held = still_held
        if len(confirmed) == k:
            queue.push(current)
            break
        if len(confirmed) + len(held) < k:
            if current.is_point:
                confirmed.append(current)
            else:
                held.append(current)
            continue
        # No room to hold ``current``: resolve the first held candidate.
        first = held[0]
        if constrain is not None and not first.constrained:
            held[0] = _constrain_candidate(first, q, constrain, outcome)
            queue.push(current)
            continue
        position = probe(first.oid)
        outcome.probed[first.oid] = position
        outcome.shrunk.pop(first.oid, None)
        queue.push(_Candidate(first.oid, position, q, constrained=True))
        queue.push(current)
        held.pop(0)

    # Queue exhausted: remaining held candidates are the only options.
    while held and len(confirmed) < k:
        confirmed.append(held.pop(0))

    confirmed.sort(key=lambda c: (c.hi, c.oid))
    outcome.results = [candidate.oid for candidate in confirmed]
    outcome.radius = _quarantine_radius(confirmed, None, queue, k)
    return outcome

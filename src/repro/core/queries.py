"""Continuous spatial queries and their quarantine areas (Section 3.3).

The server stores, for each registered query, (1) its parameters, (2) the
current result set, and (3) the *quarantine area*: a region such that while
every result object stays inside it and every non-result object stays
outside it, the result cannot change.  For a range query the quarantine
area is the query rectangle itself; for a kNN query it is a circle centred
at the query point whose radius is the midpoint of ``Delta(q, o_k.sr)``
and ``delta(q, o_{k+1}.sr)``.

A midpoint can tie; every kind ranks and judges by the one key and the
one closed boundary of :mod:`repro.geometry.ties`.  Each kind brings the
hooks the server calls without looking at its type: ``is_affected_by``,
``evaluate_over`` (evaluate from scratch and store the result),
``reevaluate_for`` (one report) and ``evict`` (one result gone).
"""

from __future__ import annotations

import itertools
from typing import Hashable

from repro.core.evaluation import ConstrainFn, ProbeFn, evaluate_knn, evaluate_range
from repro.core.reevaluation import ReevaluationOutcome, reevaluate_knn, reevaluate_range
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.ties import flips, reaches

ObjectId = Hashable

_query_counter = itertools.count(1)


class Query:
    """Base class for continuous queries monitored by the server.

    Queries use identity semantics (each registered query is a distinct
    monitoring session, even if the parameters coincide), so the default
    ``hash`` / ``eq`` are intentionally kept.
    """

    __slots__ = ("query_id",)

    def __init__(self, query_id: str | None = None) -> None:
        self.query_id = query_id or f"q{next(_query_counter)}"

    # -- grid-index interface -------------------------------------------------
    def quarantine_bounding_rect(self) -> Rect:
        """Bounding rectangle of the quarantine area."""
        raise NotImplementedError

    def quarantine_overlaps(self, rect: Rect) -> bool:
        """Whether the quarantine area intersects ``rect``."""
        raise NotImplementedError

    def quarantine_contains(self, p: Point) -> bool:
        """Whether ``p`` lies inside the quarantine area."""
        raise NotImplementedError

    # -- update filtering (Section 3.3) ---------------------------------------
    def is_affected_by(self, oid: ObjectId, p: Point) -> bool:
        """Whether a report of ``oid`` at ``p`` may change the result,
        judged by ``p`` and by whether ``oid`` is a result now."""
        raise NotImplementedError

    def evict(
        self, oid: ObjectId, index, probe: ProbeFn,
        constrain: ConstrainFn | None = None,
    ) -> ReevaluationOutcome:
        """Repair the result after member ``oid`` left ``index``: a
        set-style discard unless the kind overrides it."""
        self.results.discard(oid)
        return ReevaluationOutcome(changed=True, case="evict")

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"{type(self).__name__}({self.query_id})"


class RangeQuery(Query):
    """A continuous range query: report all objects inside ``rect``."""

    __slots__ = ("rect", "results", "_clip_memo")

    def __init__(self, rect: Rect, query_id: str | None = None) -> None:
        super().__init__(query_id)
        self.rect = rect
        #: Current result set, maintained by the server.
        self.results: set[ObjectId] = set()
        #: Memoised ``rect.intersection(cell)`` per cell rectangle.  The
        #: query rectangle is immutable, so entries never invalidate; the
        #: grid hands out interned cell rects, keeping the memo tiny.
        self._clip_memo: dict[Rect, Rect | None] = {}

    def clipped_to(self, cell: Rect) -> Rect | None:
        """``rect ∩ cell``, memoised per cell (hot in safe-region computation)."""
        try:
            return self._clip_memo[cell]
        except KeyError:
            clipped = self._clip_memo[cell] = self.rect.intersection(cell)
            return clipped

    def quarantine_bounding_rect(self) -> Rect:
        return self.rect

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.rect.intersects(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.rect.contains_point(p)

    def is_affected_by(self, oid: ObjectId, p: Point) -> bool:
        return flips(self.rect.contains_point(p), oid in self.results)

    def evaluate_over(self, index, probe, constrain=None):
        evaluation = evaluate_range(index, self.rect, probe, constrain)
        self.results = set(evaluation.results)
        return evaluation

    def reevaluate_for(self, oid, p, index=None, probe=None, constrain=None):
        return reevaluate_range(self, oid, p)

    def result_snapshot(self) -> frozenset[ObjectId]:
        """Immutable copy of the current result set."""
        return frozenset(self.results)


class KNNQuery(Query):
    """A continuous k-nearest-neighbour query anchored at ``center``.

    ``order_sensitive`` queries treat ``[a, b]`` and ``[b, a]`` as different
    results; they are the default in the paper's workload (Section 7.1).
    ``results`` is maintained in ascending distance order for the
    order-sensitive variant; for the order-insensitive variant the order in
    the list is incidental and comparisons use sets.
    """

    __slots__ = (
        "center", "k", "order_sensitive", "results", "_radius",
        "_circle_memo", "_brect_memo",
    )

    def __init__(
        self,
        center: Point,
        k: int,
        order_sensitive: bool = True,
        query_id: str | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(query_id)
        self.center = center
        self.k = k
        self.order_sensitive = order_sensitive
        #: Current result, nearest first; maintained by the server.
        self.results: list[ObjectId] = []
        #: Quarantine-circle radius; 0 until the query is first evaluated.
        self._radius: float = 0.0
        self._circle_memo: Circle | None = None
        self._brect_memo: Rect | None = None

    @property
    def radius(self) -> float:
        """Quarantine-circle radius; assignment invalidates the memos."""
        return self._radius

    @radius.setter
    def radius(self, value: float) -> None:
        if value != self._radius:
            self._radius = value
            self._circle_memo = None
            self._brect_memo = None

    def quarantine_circle(self) -> Circle:
        """The quarantine area (a circle centred at the query point).

        The circle (and its bounding rectangle below) is memoised until the
        radius changes: the grid index probes it once per covered cell.
        """
        circle = self._circle_memo
        if circle is None:
            circle = self._circle_memo = Circle(self.center, self._radius)
        return circle

    def quarantine_bounding_rect(self) -> Rect:
        brect = self._brect_memo
        if brect is None:
            brect = self._brect_memo = self.quarantine_circle().bounding_rect()
        return brect

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.quarantine_circle().intersects_rect(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.quarantine_circle().contains_point(p)

    def is_affected_by(self, oid: ObjectId, p: Point) -> bool:
        # ``quarantine_circle().contains_point(p)``, kept three-way: the
        # order-insensitive rule must tell "on" from "inside".
        d = self.center.distance_to(p)
        r = self._radius
        if self.order_sensitive:
            # Order may change from movement *within* the quarantine
            # area: a member's report always matters (Section 3.3).
            return reaches(d <= r, oid in self.results)
        # On the circle the report may tie the k-th member (or, for a
        # member, the next non-member): let the key decide.
        return d == r or flips(d < r, oid in self.results)

    def evaluate_over(self, index, probe, constrain=None):
        evaluation = evaluate_knn(
            index, self.center, self.k, probe,
            order_sensitive=self.order_sensitive, constrain=constrain,
        )
        self.results = list(evaluation.results)
        self.radius = evaluation.radius
        return evaluation

    def reevaluate_for(self, oid, p, index=None, probe=None, constrain=None):
        return reevaluate_knn(self, oid, p, index, probe, index.rect_of, constrain)

    def evict(self, oid, index, probe, constrain=None):
        """A member left: refill from scratch over the remaining objects."""
        evaluation = self.evaluate_over(index, probe, constrain)
        return ReevaluationOutcome(
            changed=True, shrunk=evaluation.shrunk, quarantine_changed=True,
            case="evict",
        )

    def result_snapshot(self) -> tuple[ObjectId, ...] | frozenset[ObjectId]:
        """Immutable copy of the current result.

        A tuple (ordered) for order-sensitive queries, a frozenset for
        order-insensitive ones — matching how equality of results is
        defined for each variant.
        """
        if self.order_sensitive:
            return tuple(self.results)
        return frozenset(self.results)

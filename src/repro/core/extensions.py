"""Additional query types plugged into the generic framework.

The paper's framework claims genericity: a new continuous query type only
needs (1) a quarantine area with the grid-index interface, (2) an
evaluation routine over safe regions with lazy probes, (3) an incremental
reevaluation rule, and (4) a per-query safe-region contribution.  This
module adds one such type end to end:

* :class:`CircleRangeQuery` — report all objects within distance ``radius``
  of a fixed point ("everything within 500 m of the stadium").  Its
  quarantine area is the circle itself; member safe regions are inscribed
  rectangles of the circle (Proposition 5.2) and non-member regions avoid
  it (Proposition 5.4) — the same Ir-lp geometry kNN queries use.

The server calls every query through the :class:`~repro.core.queries.Query`
interface — ``is_affected_by`` and the ``evaluate_over`` /
``reevaluate_for`` / ``evict`` hooks, as the range and kNN queries do —
plus the optional ``safe_region_for``, so extension types live outside
the core modules.  Each judges reports by the shared boundary rules of
:mod:`repro.geometry.ties`.
"""

from __future__ import annotations

import math
from typing import Hashable

from repro.core.evaluation import ConstrainFn, EvaluationResult, ProbeFn, evaluate_range
from repro.core.irlp import Objective, irlp_circle, irlp_circle_complement
from repro.core.queries import Query
from repro.core.reevaluation import ReevaluationOutcome
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.ties import flips, reaches

ObjectId = Hashable


class CircleRangeQuery(Query):
    """A continuous circular range query: objects within ``radius`` of ``center``."""

    __slots__ = ("center", "radius", "results")

    def __init__(
        self, center: Point, radius: float, query_id: str | None = None
    ) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        super().__init__(query_id)
        self.center = center
        self.radius = radius
        #: Current result set, maintained by the server.
        self.results: set[ObjectId] = set()

    # -- quarantine interface (Section 3.3) --------------------------------
    def circle(self) -> Circle:
        return Circle(self.center, self.radius)

    def quarantine_bounding_rect(self) -> Rect:
        return self.circle().bounding_rect()

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.circle().intersects_rect(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.circle().contains_point(p)

    def is_affected_by(self, oid: ObjectId, p: Point) -> bool:
        return flips(self.quarantine_contains(p), oid in self.results)

    def result_snapshot(self) -> frozenset[ObjectId]:
        return frozenset(self.results)

    # -- framework hooks ----------------------------------------------------
    def evaluate_over(
        self,
        index,
        probe: ProbeFn,
        constrain: ConstrainFn | None = None,
    ) -> EvaluationResult:
        """Evaluate from scratch over safe regions (lazy probes).

        A region fully inside the circle makes its object a member; one
        fully outside makes it a non-member; overlapping regions are
        tightened by the reachability constraint and probed if still
        ambiguous — the same lazy-probe discipline as rectangles.
        """
        circle = self.circle()
        outcome = EvaluationResult(results=[])
        for oid, region in index.search_entries(self.quarantine_bounding_rect()):
            if circle.contains_rect(region):
                outcome.results.append(oid)
                continue
            if circle.excludes_rect(region):
                continue
            if constrain is not None:
                tightened = constrain(oid, region)
                if tightened != region:
                    if circle.contains_rect(tightened):
                        outcome.results.append(oid)
                        outcome.shrunk[oid] = tightened
                        continue
                    if circle.excludes_rect(tightened):
                        outcome.shrunk[oid] = tightened
                        continue
            position = probe(oid)
            outcome.probed[oid] = position
            if circle.contains_point(position):
                outcome.results.append(oid)
        self.results = set(outcome.results)
        return outcome

    def reevaluate_for(
        self,
        oid: ObjectId,
        p: Point,
        index=None,
        probe: ProbeFn | None = None,
        constrain: ConstrainFn | None = None,
    ) -> ReevaluationOutcome:
        """Flip membership of ``oid`` after its update to ``p`` (no probes)."""
        inside = self.quarantine_contains(p)
        if inside and oid not in self.results:
            self.results.add(oid)
            return ReevaluationOutcome(changed=True)
        if not inside and oid in self.results:
            self.results.discard(oid)
            return ReevaluationOutcome(changed=True)
        return ReevaluationOutcome(changed=False)

    def safe_region_for(
        self,
        oid: ObjectId,
        p: Point,
        cell: Rect,
        objective: Objective | None = None,
    ) -> Rect:
        """Per-query safe region: inside the circle for members, outside it
        for non-members (Section 5.2 geometry)."""
        if oid in self.results:
            region = irlp_circle(self.circle(), p, objective)
            clipped = region.intersection(cell)
            if clipped is None or not clipped.contains_point(p, eps=1e-9):
                return Rect.from_point(cell.clamp_point(p))
            return clipped
        return irlp_circle_complement(self.circle(), p, cell, objective)


class ThresholdRangeQuery(Query):
    """An aggregate query: alert when at least ``threshold`` objects are
    inside ``rect`` (the paper's Section 8 "aggregate queries").

    Internally maintains the exact membership set — the safe-region
    machinery must still detect every boundary crossing to keep the count
    right — but the *reported* result (and hence what application servers
    see change) is the boolean alert state plus the count.
    """

    __slots__ = ("rect", "threshold", "members")

    def __init__(
        self, rect: Rect, threshold: int, query_id: str | None = None
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be positive, got {threshold}")
        super().__init__(query_id)
        self.rect = rect
        self.threshold = threshold
        self.members: set[ObjectId] = set()

    # ``results`` mirrors the membership set so generic server code that
    # stores evaluation output keeps working.
    @property
    def results(self):
        return self.members

    @results.setter
    def results(self, value) -> None:
        self.members = set(value)

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def alerting(self) -> bool:
        return self.count >= self.threshold

    # -- quarantine interface (identical to a range query) -----------------
    def quarantine_bounding_rect(self) -> Rect:
        return self.rect

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.rect.intersects(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.rect.contains_point(p)

    def is_affected_by(self, oid: ObjectId, p: Point) -> bool:
        return flips(self.rect.contains_point(p), oid in self.members)

    def result_snapshot(self) -> tuple[bool, int]:
        """What application servers monitor: (alert state, count)."""
        return (self.alerting, self.count)

    # -- framework hooks ----------------------------------------------------
    def evaluate_over(
        self,
        index,
        probe: ProbeFn,
        constrain: ConstrainFn | None = None,
    ) -> EvaluationResult:
        """Same lazy-probe evaluation as a rectangle range query."""
        evaluation = evaluate_range(index, self.rect, probe, constrain)
        self.members = set(evaluation.results)
        return evaluation

    def reevaluate_for(
        self,
        oid: ObjectId,
        p: Point,
        index=None,
        probe: ProbeFn | None = None,
        constrain: ConstrainFn | None = None,
    ) -> ReevaluationOutcome:
        inside = self.rect.contains_point(p)
        if inside and oid not in self.members:
            self.members.add(oid)
            return ReevaluationOutcome(changed=True)
        if not inside and oid in self.members:
            self.members.discard(oid)
            return ReevaluationOutcome(changed=True)
        return ReevaluationOutcome(changed=False)

    def safe_region_for(
        self,
        oid: ObjectId,
        p: Point,
        cell: Rect,
        objective: Objective | None = None,
    ) -> Rect:
        """Identical geometry to a rectangle range query (Section 5.1)."""
        from repro.core.safe_region import range_safe_region

        proxy = _RangeProxy(self.rect)
        return range_safe_region(proxy, p, cell, objective)


class _RangeProxy:
    """Minimal stand-in accepted by ``range_safe_region``."""

    __slots__ = ("rect",)

    def __init__(self, rect: Rect) -> None:
        self.rect = rect

    def clipped_to(self, cell: Rect) -> Rect | None:
        # Unmemoised: the proxy lives for a single computation.
        return self.rect.intersection(cell)


class ProximityPairQuery(Query):
    """Continuous proximity monitoring around a *moving* focal object.

    The paper's Section 8 names "spatial joins" as future work; this is
    the distance-join primitive: report every object within ``radius`` of
    the focal object ``focal`` — "which vehicles are within 200 m of the
    ambulance", continuously, while the ambulance itself moves.

    The machinery follows the framework exactly, with the twist that the
    query anchor is itself known only by a safe region:

    * The quarantine area is the focal's safe region expanded by
      ``radius`` (a moving rectangle refreshed whenever the focal's
      region changes — ``quarantine_changed`` drives the grid update).
    * A pair (focal, o) is decidedly *in* when ``Delta(o, F.sr) <= r``
      and decidedly *out* when ``delta(o, F.sr) >= r``; anything between
      probes the focal (at most one probe per reevaluation).
    * Safe regions use conservative disks: a member must stay inside
      ``disk(F.sr.center, r - halfdiag(F.sr))``; a nearby non-member
      outside ``disk(F.sr.center, r + halfdiag(F.sr))``; and the focal's
      own region must maintain every pair, so it intersects one such
      piece per nearby object.
    """

    __slots__ = ("focal", "radius", "results", "_focal_region")

    def __init__(
        self,
        focal: ObjectId,
        radius: float,
        query_id: str | None = None,
    ) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        super().__init__(query_id)
        self.focal = focal
        self.radius = radius
        #: Objects currently within ``radius`` of the focal (never the
        #: focal itself).
        self.results: set[ObjectId] = set()
        #: Last known focal safe region (point rect right after updates).
        self._focal_region: Rect | None = None

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _half_diagonal(region: Rect) -> float:
        return region.center.distance_to(
            Point(region.max_x, region.max_y)
        )

    def _inner_disk(self) -> Circle:
        """Members must stay inside this disk (conservative)."""
        region = self._focal_region
        radius = max(self.radius - self._half_diagonal(region), 0.0)
        return Circle(region.center, radius)

    def _outer_disk(self) -> Circle:
        """Non-members must stay outside this disk (conservative)."""
        region = self._focal_region
        return Circle(
            region.center, self.radius + self._half_diagonal(region)
        )

    # -- quarantine interface -------------------------------------------------
    def quarantine_bounding_rect(self) -> Rect:
        if self._focal_region is None:
            return Rect(0.0, 0.0, 0.0, 0.0)
        # The focal's granted region can grow to a radius/4 box between
        # grid refreshes (see _tight_focal_box); the extra half radius of
        # slack keeps the grid buckets conservative throughout.
        return self._focal_region.expanded(1.5 * self.radius)

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.quarantine_bounding_rect().intersects(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.quarantine_bounding_rect().contains_point(p)

    def is_affected_by(self, oid: ObjectId, p: Point) -> bool:
        return oid == self.focal or reaches(
            self.quarantine_contains(p), oid in self.results
        )

    def result_snapshot(self) -> frozenset[ObjectId]:
        return frozenset(self.results)

    # -- framework hooks -------------------------------------------------------
    def evaluate_over(
        self,
        index,
        probe: ProbeFn,
        constrain: ConstrainFn | None = None,
    ) -> EvaluationResult:
        """Probe the focal, then run a circular range around its position."""
        outcome = EvaluationResult(results=[])
        focal_position = probe(self.focal)
        outcome.probed[self.focal] = focal_position
        self._focal_region = Rect.from_point(focal_position)
        circle = Circle(focal_position, self.radius)
        for oid, region in index.search_entries(circle.bounding_rect()):
            if oid == self.focal:
                continue
            if circle.contains_rect(region):
                outcome.results.append(oid)
                continue
            if circle.excludes_rect(region):
                continue
            position = probe(oid)
            outcome.probed[oid] = position
            if circle.contains_point(position):
                outcome.results.append(oid)
        self.results = set(outcome.results)
        return outcome

    def reevaluate_for(
        self,
        oid: ObjectId,
        p: Point,
        index=None,
        probe: ProbeFn | None = None,
        constrain: ConstrainFn | None = None,
    ) -> ReevaluationOutcome:
        if oid == self.focal:
            return self._reevaluate_focal(p, index, probe)
        return self._reevaluate_other(oid, p, index, probe)

    def _reevaluate_focal(self, p: Point, index, probe) -> ReevaluationOutcome:
        """The anchor moved: recompute the pair set around its new point."""
        outcome = ReevaluationOutcome(changed=False, quarantine_changed=True)
        self._focal_region = Rect.from_point(p)
        before = frozenset(self.results)
        circle = Circle(p, self.radius)
        members: set[ObjectId] = set()
        for oid, region in index.search_entries(circle.bounding_rect()):
            if oid == self.focal:
                continue
            if circle.contains_rect(region):
                members.add(oid)
            elif not circle.excludes_rect(region):
                position = probe(oid)
                outcome.probed[oid] = position
                if circle.contains_point(position):
                    members.add(oid)
        self.results = members
        outcome.changed = frozenset(members) != before
        return outcome

    def _reevaluate_other(self, oid, p: Point, index, probe) -> ReevaluationOutcome:
        """Another object moved: decide its pairing against the focal."""
        outcome = ReevaluationOutcome(changed=False)
        focal_region = index.rect_of(self.focal)
        self._focal_region = focal_region
        lo = focal_region.min_dist_to_point(p)
        hi = focal_region.max_dist_to_point(p)
        if hi <= self.radius:
            member = True
        elif lo > self.radius:
            member = False
        else:
            focal_position = probe(self.focal)
            outcome.probed[self.focal] = focal_position
            self._focal_region = Rect.from_point(focal_position)
            outcome.quarantine_changed = True
            member = p.distance_to(focal_position) <= self.radius
        if member and oid not in self.results:
            self.results.add(oid)
            outcome.changed = True
        elif not member and oid in self.results:
            self.results.discard(oid)
            outcome.changed = True
        return outcome

    def safe_region_for(
        self,
        oid: ObjectId,
        p: Point,
        cell: Rect,
        objective: Objective | None = None,
    ) -> Rect:
        if self._focal_region is None:
            return cell
        if oid == self.focal:
            return self._focal_safe_region(p, cell, objective)
        if oid in self.results:
            disk = self._inner_disk()
            if disk.radius <= 0.0 or not disk.contains_point(p, eps=1e-9):
                return Rect.from_point(cell.clamp_point(p))
            region = irlp_circle(disk, p, objective)
            clipped = region.intersection(cell)
            if clipped is None or not clipped.contains_point(p, eps=1e-9):
                return Rect.from_point(cell.clamp_point(p))
            return clipped
        return irlp_circle_complement(self._outer_disk(), p, cell, objective)

    def _focal_safe_region(
        self, p: Point, cell: Rect, objective: Objective | None
    ) -> Rect:
        """The focal's own region must preserve every pair relationship.

        Conservative per-object pieces intersected into one rectangle.
        Needs the *other* objects' safe regions; the focal's region is
        recomputed by the server right after its own update, when this
        query holds the freshest focal point, so the piece disks are
        anchored at the current stored regions via the quarantine rect.
        """
        region = self._tight_focal_box(p, cell)
        clipped = region.intersection(cell)
        if clipped is None or not clipped.contains_point(p, eps=1e-9):
            clipped = Rect.from_point(cell.clamp_point(p))
        # Record the *granted* box: every disk handed to the other
        # objects is anchored at this rectangle, and the server installs
        # a subset of it (the intersection with the other queries'
        # pieces), so the recording stays conservative.
        self._focal_region = clipped
        return clipped

    def _tight_focal_box(self, p: Point, cell: Rect) -> Rect:
        """A box around the focal sized by its pairing slack.

        The focal may move until some pair flips: at most
        ``radius / 4`` in any direction keeps every conservative disk
        decision valid between its own updates (members sit within
        ``r``, non-members beyond ``r``; a quarter-radius box shifts any
        distance by at most ``r/4``·sqrt(2) < r/2, leaving the
        reevaluation probes to resolve the rest).  Simple, sound, and
        refreshed on every focal update.
        """
        slack = self.radius / 4.0
        return Rect(
            p.x - slack, p.y - slack, p.x + slack, p.y + slack
        )


class MovingKNNQuery(Query):
    """Continuous kNN anchored at a *moving* focal object.

    "The three nearest units to the ambulance, continuously, while the
    ambulance drives."  Complements :class:`ProximityPairQuery` with
    nearest-neighbour semantics; results are maintained as an unordered
    set (order around a moving anchor churns too fast to be useful to an
    application, and the paper's order-insensitive semantics apply).

    The maintenance strategy is conservative and probe-light:

    * The query keeps a quarantine circle around the focal's last exact
      position, sized like the static kNN quarantine (midway between the
      k-th neighbour and the follower) *minus* the focal's own slack.
    * Safe regions: members stay inside the inner disk, nearby
      non-members outside the outer disk, and the focal inside a slack
      box — all anchored at the focal's recorded region, exactly like
      :class:`ProximityPairQuery` but with the radius maintained
      dynamically instead of fixed.
    * Any report that lands in the uncertainty band triggers a focal
      probe and a fresh evaluation around the exact anchor point.
    """

    __slots__ = ("focal", "k", "results", "radius", "_band", "_focal_region")

    def __init__(
        self, focal: ObjectId, k: int, query_id: str | None = None
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        super().__init__(query_id)
        self.focal = focal
        self.k = k
        self.results: set[ObjectId] = set()
        #: Current quarantine radius around the focal's recorded region.
        self.radius: float = 0.0
        #: Separation band at the last refresh: the distance gap between
        #: the k-th member and the nearest non-member.  The focal's slack
        #: box and the conservative disks are sized so that any placement
        #: within them keeps members within ``radius`` of the focal and
        #: non-members beyond it, *independent of the order in which the
        #: server recomputes the individual safe regions*.
        self._band: float = 0.0
        self._focal_region: Rect | None = None

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _half_diagonal(region: Rect) -> float:
        return region.center.distance_to(Point(region.max_x, region.max_y))

    def _refresh(self, focal_position: Point, index, probe) -> set[ObjectId]:
        """Exact evaluation around a known focal point; resets the radius."""
        ranked: list[tuple[float, ObjectId]] = []
        follower_distance = None
        for oid, region, _ in index.nearest_iter(focal_position):
            if oid == self.focal:
                continue
            if len(ranked) < self.k:
                position = probe(oid) if region.width or region.height else region.center
                ranked.append((focal_position.distance_to(position), oid))
                ranked.sort()
            else:
                follower_distance = region.min_dist_to_point(focal_position)
                break
        members = {oid for _, oid in ranked}
        if ranked:
            kth = ranked[-1][0]
            if follower_distance is None or follower_distance < kth:
                follower_distance = kth
            self.radius = (kth + follower_distance) / 2.0
            self._band = max(follower_distance - kth, 0.0)
        else:
            self.radius = 0.0
            self._band = 0.0
        self._focal_region = Rect.from_point(focal_position)
        return members

    # -- quarantine interface --------------------------------------------------
    def quarantine_bounding_rect(self) -> Rect:
        if self._focal_region is None:
            return Rect(0.0, 0.0, 0.0, 0.0)
        return self._focal_region.expanded(1.5 * max(self.radius, 1e-9))

    def quarantine_overlaps(self, rect: Rect) -> bool:
        return self.quarantine_bounding_rect().intersects(rect)

    def quarantine_contains(self, p: Point) -> bool:
        return self.quarantine_bounding_rect().contains_point(p)

    def is_affected_by(self, oid: ObjectId, p: Point) -> bool:
        return oid == self.focal or reaches(
            self.quarantine_contains(p), oid in self.results
        )

    def result_snapshot(self) -> frozenset[ObjectId]:
        return frozenset(self.results)

    # -- framework hooks ---------------------------------------------------------
    def evaluate_over(
        self,
        index,
        probe: ProbeFn,
        constrain: ConstrainFn | None = None,
    ) -> EvaluationResult:
        outcome = EvaluationResult(results=[])
        focal_position = probe(self.focal)
        outcome.probed[self.focal] = focal_position

        def counting_probe(target):
            position = probe(target)
            outcome.probed[target] = position
            return position

        self.results = self._refresh(focal_position, index, counting_probe)
        outcome.results = list(self.results)
        outcome.radius = self.radius
        return outcome

    def reevaluate_for(
        self,
        oid: ObjectId,
        p: Point,
        index=None,
        probe: ProbeFn | None = None,
        constrain: ConstrainFn | None = None,
    ) -> ReevaluationOutcome:
        outcome = ReevaluationOutcome(changed=False, quarantine_changed=True)
        before = frozenset(self.results)
        if oid == self.focal:
            focal_position = p
        else:
            # Could the report change the set?  Decide against the
            # conservative disks; only band landings probe the focal.
            inner = max(self.radius - self._band / 4.0, 0.0)
            outer = self.radius + self._band / 4.0
            d_lo = self._focal_region.min_dist_to_point(p)
            d_hi = self._focal_region.max_dist_to_point(p)
            if oid in self.results and d_hi <= inner:
                outcome.quarantine_changed = False
                return outcome  # member, still surely inside
            if oid not in self.results and d_lo >= outer:
                outcome.quarantine_changed = False
                return outcome  # non-member, still surely outside
            focal_position = probe(self.focal)
            outcome.probed[self.focal] = focal_position

        def counting_probe(target):
            position = probe(target)
            outcome.probed[target] = position
            return position

        self.results = self._refresh(focal_position, index, counting_probe)
        outcome.changed = frozenset(self.results) != before
        return outcome

    def safe_region_for(
        self,
        oid: ObjectId,
        p: Point,
        cell: Rect,
        objective: Objective | None = None,
    ) -> Rect:
        if self._focal_region is None or self.radius <= 0.0:
            return cell
        center = self._focal_region.center
        margin = self._band / 4.0
        if oid == self.focal:
            # Half-diagonal of the slack box equals ``margin`` exactly, so
            # the disks below stay valid for any focal placement in it.
            slack = margin / math.sqrt(2.0)
            box = Rect(p.x - slack, p.y - slack, p.x + slack, p.y + slack)
            clipped = box.intersection(cell)
            if clipped is None or not clipped.contains_point(p, eps=1e-9):
                clipped = Rect.from_point(cell.clamp_point(p))
            self._focal_region = clipped
            return clipped
        if oid in self.results:
            disk = Circle(center, max(self.radius - margin, 0.0))
            if disk.radius <= 0.0 or not disk.contains_point(p, eps=1e-9):
                return Rect.from_point(cell.clamp_point(p))
            region = irlp_circle(disk, p, objective)
            clipped = region.intersection(cell)
            if clipped is None or not clipped.contains_point(p, eps=1e-9):
                return Rect.from_point(cell.clamp_point(p))
            return clipped
        return irlp_circle_complement(
            Circle(center, self.radius + margin), p, cell, objective
        )

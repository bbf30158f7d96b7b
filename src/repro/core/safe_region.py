"""Safe-region computation (Section 5).

The safe region ``p.sr`` of an object at location ``p`` is the intersection
of per-query safe regions ``p.sr_Q`` over all *relevant* queries (those
whose quarantine area overlaps the grid cell containing ``p``), further
constrained to that cell.  Per Theorem 5.1 the expected update rate of an
object moving in a random direction is inversely proportional to the safe
region's perimeter, so every constituent maximises perimeter (or the
weighted perimeter of Section 6.2 when a movement direction is known) —
after a kNN non-result has ceded ``OUTSIDER_STANDOFF`` of its gap to the
quarantine circle, because the theorem prices updates, not probes, and
inside the narrower θ range that keeps ``ROOM_SHARE`` of the object's
clearance free around it, because the theorem places the object at random
inside its region while the clamped closed forms put it on a face.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable

from repro.core.batch import batch_range_safe_region
from repro.core.irlp import (
    Objective,
    interior_margin,
    irlp_circle,
    irlp_circle_complement,
    irlp_ring,
)
from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.geometry.circle import Circle
from repro.geometry.distances import Delta, delta
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.ring import Ring

ObjectId = Hashable
SrLookup = Callable[[ObjectId], Rect]

#: Share of a kNN non-result's gap ``d - r`` to the quarantine circle
#: that its safe region leaves free (DESIGN.md §6 item 3).  The
#: perimeter-maximal rectangle *touches* the circle, so the moment the
#: k-th neighbour steps out, Algorithm 2 must probe every outsider of
#: the ring (37 probes per leaving neighbour at 40 objects per cell);
#: receding in proportion to the object's real distance leaves only
#: genuinely adjacent objects as probe candidates.  A constant, not a
#: knob: comm cost is flat from 0.10 to 0.25 (docs/PERFORMANCE.md).
OUTSIDER_STANDOFF = 0.15

#: Share of a kNN object's radial clearance ``c`` — its distance to the
#: nearest bound of the annulus it must stay in — kept free around it on
#: all four sides (DESIGN.md §6 item 1).  The Ir-lp families size their
#: rectangle to hold the axis box ``p ± room`` with
#: ``room = ROOM_SHARE · c / √2``: the box's far corner is
#: ``ROOM_SHARE · c`` from ``p``, so it fits the annulus for any share up
#: to 1, and up to ``1/√2`` some family's layout always holds it.  A
#: constant, not a knob: comm cost is within 1.5 % of its best from 0.7
#: to 0.9 (docs/PERFORMANCE.md "Storm census").
ROOM_SHARE = 0.7

_SQRT2 = math.sqrt(2.0)


def range_safe_region(
    query: RangeQuery,
    p: Point,
    cell: Rect,
    objective: Objective | None = None,
) -> Rect:
    """Safe region of one range query for an object at ``p`` (Section 5.1).

    Inside the quarantine area the best region is the query rectangle
    itself (clipped to the cell).  Outside, four candidate rectangles each
    share one side with the cell; the one containing ``p`` with the best
    score wins.
    """
    score = objective if objective is not None else _perimeter
    clipped = query.clipped_to(cell)
    if clipped is None:
        return cell
    if query.rect.contains_point(p):
        return clipped

    candidates = [
        Rect(cell.min_x, cell.min_y, clipped.min_x, cell.max_y),  # left
        Rect(clipped.max_x, cell.min_y, cell.max_x, cell.max_y),  # right
        Rect(cell.min_x, cell.min_y, cell.max_x, clipped.min_y),  # bottom
        Rect(cell.min_x, clipped.max_y, cell.max_x, cell.max_y),  # top
    ]
    valid = [rect for rect in candidates if rect.contains_point(p)]
    if not valid:  # p on the quarantine boundary, numerically inside
        return Rect.from_point(p)
    # Prefer strips holding p strictly inside: a strip with p exactly on
    # its face would trigger an immediate next update (update storm).
    return max(
        valid,
        key=lambda rect: (interior_margin(rect, p) > 1e-9, score(rect)),
    )


def knn_safe_region(
    query: KNNQuery,
    oid: ObjectId,
    p: Point,
    cell: Rect,
    sr_of: SrLookup,
    objective: Objective | None = None,
) -> Rect:
    """Safe region of one kNN query for an object at ``p`` (Section 5.2).

    Every piece keeps ``ROOM_SHARE`` of the object's radial clearance —
    to the standoff circle, the quarantine circle, or the nearer of its
    two rank bounds — free around ``p`` (the Ir-lp families' ``room``).

    * Non-result objects must stay outside the quarantine circle — Ir-lp
      of the complement, within the cell, of the circle pushed out by
      ``OUTSIDER_STANDOFF`` of the object's own gap to it.
    * Results of an order-insensitive query must stay inside the circle —
      Ir-lp of the circle.
    * The i-th result of an order-sensitive query must additionally keep
      its rank — Ir-lp of the ring between its neighbours' distance
      bounds (the quarantine radius when ``i == k``).  A neighbour known
      by a *region* contributes its raw bound (``Delta`` below /
      ``delta`` above): the tightest sound constraint, and the region
      already claimed only its fair share of the gap.  A neighbour known
      by an exact *point* (it just updated or was probed) contributes the
      midpoint of the two exact distances — the paper's midpoint rule —
      splitting the gap fairly so neither object ends up pinned against
      the other's boundary (mutual zero-slack anchoring storms updates).
    """
    circle = query.quarantine_circle()
    results = query.results
    # Membership test before ``index``: most callers are non-results, and
    # raising ValueError on every one of them is measurably slower than a
    # second scan over the (short) result list for the members.
    rank = results.index(oid) if oid in results else -1
    q = query.center
    d_p = q.distance_to(p)

    if rank < 0:
        r = circle.radius
        clearance = 0.0
        if d_p > r > 0.0:
            kept = r + OUTSIDER_STANDOFF * (d_p - r)
            circle = Circle(q, kept)
            clearance = d_p - kept
        return irlp_circle_complement(
            circle, p, cell, objective, ROOM_SHARE * clearance / _SQRT2
        )
    if not query.order_sensitive:
        clearance = max(circle.radius - d_p, 0.0)
        region = irlp_circle(
            circle, p, objective, ROOM_SHARE * clearance / _SQRT2
        )
        return _clip_to_cell(region, cell, p)

    if rank == 0:
        inner = 0.0
    else:
        inner = _separating_bound(
            q, d_p, sr_of(query.results[rank - 1]), below=True
        )
    if rank == query.k - 1 or rank == len(query.results) - 1:
        outer = query.radius
    else:
        outer = _separating_bound(
            q, d_p, sr_of(query.results[rank + 1]), below=False
        )

    # Numerical guards: the ring must be well-formed and contain p.
    inner = min(inner, d_p)
    outer = max(outer, inner, d_p)
    clearance = outer - d_p
    if inner > 0.0:
        clearance = min(clearance, d_p - inner)
    region = irlp_ring(
        Ring(q, inner, outer), p, cell, objective,
        ROOM_SHARE * clearance / _SQRT2,
    )
    return _clip_to_cell(region, cell, p)


_POINT_SPREAD = 1e-12


def _separating_bound(
    q: Point, d_p: float, neighbour_region: Rect, below: bool
) -> float:
    """Ring bound against a ranked neighbour (see ``knn_safe_region``)."""
    lo = delta(q, neighbour_region)
    hi = Delta(q, neighbour_region)
    if hi - lo <= _POINT_SPREAD:
        return (d_p + hi) / 2.0
    return hi if below else lo


def compute_safe_region(
    oid: ObjectId,
    p: Point,
    relevant_queries: Iterable[Query],
    cell: Rect,
    sr_of: SrLookup,
    objective: Objective | None = None,
    use_batch: bool = True,
) -> Rect:
    """Full safe region of object ``oid`` at ``p`` (intersection over queries).

    Range queries whose quarantine areas exclude ``p`` are handled in one
    batch (Section 5.3) when ``use_batch`` is set — the paper argues the
    four greedy decisions beat intersecting per-query strips — otherwise
    each contributes its individual strip (Section 5.1, the ablation
    baseline).  Every other relevant query contributes its individual
    ``p.sr_Q``.  The result is contained in ``cell`` and contains ``p`` —
    every constituent does.
    """
    sr = cell
    obstacles: list[Rect] = []
    for query in relevant_queries:
        # Exact-type fast paths: the built-in query classes use
        # ``__slots__``, so a plain RangeQuery/KNNQuery instance can never
        # carry a ``safe_region_for`` attribute and the hasattr probe
        # below (an exception-driven miss) is pure overhead for them.
        tq = type(query)
        if tq is RangeQuery:
            if query.rect.contains_point(p):
                clipped = query.clipped_to(cell)
                if clipped is not None:
                    sr = _intersect(sr, clipped, p)
            elif use_batch:
                obstacles.append(query.rect)
            else:
                piece = range_safe_region(query, p, cell, objective)
                sr = _intersect(sr, piece, p)
            continue
        if tq is KNNQuery:
            region = knn_safe_region(
                query, oid, p, cell, sr_of, objective
            )
            sr = _intersect(sr, region, p)
            continue
        if hasattr(query, "safe_region_for"):
            # Extension query types bring their own contribution.
            sr = _intersect(sr, query.safe_region_for(oid, p, cell, objective), p)
        elif isinstance(query, RangeQuery):
            if query.rect.contains_point(p):
                clipped = query.clipped_to(cell)
                if clipped is not None:
                    sr = _intersect(sr, clipped, p)
            elif use_batch:
                obstacles.append(query.rect)
            else:
                piece = range_safe_region(query, p, cell, objective)
                sr = _intersect(sr, piece, p)
        elif isinstance(query, KNNQuery):
            region = knn_safe_region(
                query, oid, p, cell, sr_of, objective
            )
            sr = _intersect(sr, region, p)
        else:  # pragma: no cover — future query types plug in here
            raise TypeError(f"unsupported query type: {type(query).__name__}")

    if obstacles:
        batch = batch_range_safe_region(p, cell, obstacles, objective)
        sr = _intersect(sr, batch, p)
    return sr


def _perimeter(rect: Rect) -> float:
    return rect.perimeter


def _intersect(a: Rect, b: Rect, p: Point) -> Rect:
    """Intersection of two regions that both (nearly) contain ``p``."""
    result = a.intersection(b)
    if result is None:  # disjoint only through numerical jitter at p
        return Rect.from_point(a.clamp_point(p))
    return result


def _clip_to_cell(region: Rect, cell: Rect, p: Point) -> Rect:
    clipped = region.intersection(cell)
    if clipped is None:
        return Rect.from_point(cell.clamp_point(p))
    return clipped

"""Safe region for a batch of range queries (Section 5.3).

Given the object location ``p``, its grid cell, and the rectangles of all
relevant range queries whose quarantine areas do *not* contain ``p``, the
algorithm finds a large rectangle inside the cell containing ``p`` and
avoiding every query rectangle:

1. With ``p`` as the origin, each of the four quadrants of the cell is
   processed independently.  Proposition 5.6 yields the *component
   rectangles* — the maximal axis-aligned rectangles anchored at ``p``
   avoiding all (clipped) query rectangles — via the staircase of
   non-dominated obstacle corners.
2. A four-step greedy pass combines one component rectangle per quadrant
   into the final rectangular union: starting from the quadrant holding the
   globally longest component and proceeding clockwise, each chosen
   component's opposite corner trims the running union.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.irlp import interior_margin
from repro.geometry.point import Point
from repro.geometry.rect import Rect

Objective = Callable[[Rect], float]

#: Quadrant sign pairs in clockwise order starting from the upper-right.
_QUADRANTS: tuple[tuple[float, float], ...] = (
    (1.0, 1.0),
    (1.0, -1.0),
    (-1.0, -1.0),
    (-1.0, 1.0),
)


def batch_range_safe_region(
    p: Point,
    cell: Rect,
    obstacles: Sequence[Rect],
    objective: Objective | None = None,
) -> Rect:
    """Largest-perimeter rectangle in ``cell`` around ``p`` avoiding obstacles.

    ``p`` must lie inside ``cell`` and inside no *open* obstacle (an
    object's location is never strictly inside the quarantine area of a
    range query it is not a result of).  Obstacles may extend beyond the
    cell; only their part inside the cell matters.  The returned rectangle
    contains ``p`` (possibly on its boundary) and overlaps no open
    obstacle.
    """
    component_sets = [
        _component_corners(p, cell, obstacles, sx, sy)
        for sx, sy in _QUADRANTS
    ]
    return combine_components(p, cell, component_sets, objective)


def combine_components(
    p: Point,
    cell: Rect,
    component_sets: Sequence[list[tuple[float, float]]],
    objective: Objective | None = None,
) -> Rect:
    """Greedy four-step union of one component per quadrant (Section 5.3)."""
    if objective is None:
        # Scalar fast path for the default perimeter objective: the same
        # greedy walk without minting a Rect per candidate.  Every
        # comparison reproduces the generic path's arithmetic term for
        # term (widths as ``|g - p|``, perimeter as ``2.0 * (w + h)``,
        # first-maximum tie-breaks), so the chosen rectangle is
        # bit-identical to the generic path's.
        px, py = p.x, p.y

        start = 0
        best_val = float("-inf")
        for idx in range(4):
            q_best = float("-inf")
            for gx, gy in component_sets[idx]:
                w = gx - px if gx >= px else px - gx
                h = gy - py if gy >= py else py - gy
                v = 2.0 * (w + h)
                if v > q_best:
                    q_best = v
            if q_best > best_val:
                best_val = q_best
                start = idx

        ux0, uy0 = cell.min_x, cell.min_y
        ux1, uy1 = cell.max_x, cell.max_y
        for step in range(4):
            idx = (start + step) % 4
            corners = component_sets[idx]
            if not corners:
                continue
            sx, sy = _QUADRANTS[idx]
            best_key = None
            best_bounds = None
            for gx, gy in corners:
                if sx > 0:
                    tx0, tx1 = ux0, (ux1 if ux1 <= gx else gx)
                else:
                    tx0, tx1 = (ux0 if ux0 >= gx else gx), ux1
                if sy > 0:
                    ty0, ty1 = uy0, (uy1 if uy1 <= gy else gy)
                else:
                    ty0, ty1 = (uy0 if uy0 >= gy else gy), uy1
                if tx1 < tx0:
                    tx0, tx1 = tx1, tx0
                if ty1 < ty0:
                    ty0, ty1 = ty1, ty0
                margin = px - tx0
                m = tx1 - px
                if m < margin:
                    margin = m
                m = py - ty0
                if m < margin:
                    margin = m
                m = ty1 - py
                if m < margin:
                    margin = m
                key = (margin > 1e-9, 2.0 * ((tx1 - tx0) + (ty1 - ty0)))
                if best_key is None or key > best_key:
                    best_key = key
                    best_bounds = (tx0, ty0, tx1, ty1)
            ux0, uy0, ux1, uy1 = best_bounds
        return Rect(ux0, uy0, ux1, uy1)

    score = objective

    # Greedy start: the quadrant owning the longest-perimeter component.
    start = max(
        range(4),
        key=lambda idx: max(
            (score(_component_rect(p, t)) for t in component_sets[idx]),
            default=float("-inf"),
        ),
    )

    union = cell
    for step in range(4):
        idx = (start + step) % 4
        sx, sy = _QUADRANTS[idx]
        corners = component_sets[idx]
        if not corners:
            continue
        best = max(
            corners,
            key=lambda t: _trim_rank(_trim(union, p, t, sx, sy), p, score),
        )
        union = _trim(union, p, best, sx, sy)
    return union


def _trim_rank(rect: Rect, p: Point, score: Objective) -> tuple[bool, float]:
    """Rank a trimmed union: strict containment of ``p`` first, then score.

    A trim that leaves ``p`` exactly on the union's boundary would have
    the object exit its safe region immediately (update storm); any trim
    keeping ``p`` strictly interior is preferred regardless of perimeter.
    """
    return (interior_margin(rect, p) > 1e-9, score(rect))


def _perimeter(rect: Rect) -> float:
    return rect.perimeter


def _component_corners(
    p: Point,
    cell: Rect,
    obstacles: Sequence[Rect],
    sx: float,
    sy: float,
) -> list[tuple[float, float]]:
    """Opposite corners of the component rectangles in one quadrant.

    Works in quadrant-local coordinates (``p`` at the origin, the quadrant
    mapped onto the first): a closed component rectangle ``[0, X] x [0, Y]``
    avoids an open obstacle with local lower-left corner ``(ax, ay)`` iff
    ``X <= ax`` or ``Y <= ay``.  The maximal ``(X, Y)`` pairs form the
    staircase of Proposition 5.6.  An obstacle straddling one of the
    quadrant's axes has a negative coordinate there: no component, not
    even a degenerate one along that axis, may pass it.

    Each corner is returned in global coordinates, as the very obstacle
    or cell edge that bounds it: mapping ``X`` back through ``p`` would
    round, and could leave the region an ulp inside an open obstacle.
    """
    width = (cell.max_x - p.x) if sx > 0 else (p.x - cell.min_x)
    height = (cell.max_y - p.y) if sy > 0 else (p.y - cell.min_y)
    far_x = cell.max_x if sx > 0 else cell.min_x
    far_y = cell.max_y if sy > 0 else cell.min_y
    if width <= 0.0:
        width, far_x = 0.0, p.x
    if height <= 0.0:
        height, far_y = 0.0, p.y

    blockers = []
    for obstacle in obstacles:
        corner = _local_min_corner(p, obstacle, sx, sy, width, height)
        if corner is not None:
            blockers.append(corner)
    # Proposition 5.6: sweep the blockers by x; each one that lowers the
    # running y cap opens a new component, dominated corners add nothing.
    blockers.sort()
    corners: list[tuple[float, float]] = []
    y_cap, cap_y = height, far_y
    for ax, ay, edge_x, edge_y in blockers:
        if ay >= y_cap:
            continue
        if ax >= 0.0 and (not corners or corners[-1][0] != edge_x):
            corners.append((edge_x, cap_y))
        y_cap, cap_y = ay, edge_y
        if y_cap < 0.0:
            return corners
    corners.append((far_x, cap_y))
    return corners


def _local_min_corner(
    p: Point, obstacle: Rect, sx: float, sy: float, width: float, height: float
) -> tuple[float, float, float, float] | None:
    """Obstacle's lower-left corner in quadrant-local coordinates, then
    the global edges it stands for.

    Returns ``None`` when the obstacle cannot constrain any component
    rectangle of this quadrant (no positive-area overlap with it).
    """
    if sx > 0:
        edge_x = obstacle.min_x
        lx1, lx2 = edge_x - p.x, obstacle.max_x - p.x
    else:
        edge_x = obstacle.max_x
        lx1, lx2 = p.x - edge_x, p.x - obstacle.min_x
    if sy > 0:
        edge_y = obstacle.min_y
        ly1, ly2 = edge_y - p.y, obstacle.max_y - p.y
    else:
        edge_y = obstacle.max_y
        ly1, ly2 = p.y - edge_y, p.y - obstacle.min_y

    if lx2 <= 0.0 or ly2 <= 0.0 or lx1 >= width or ly1 >= height:
        return None
    return (lx1, ly1, edge_x, edge_y)


def _component_rect(p: Point, corner: tuple[float, float]) -> Rect:
    """The component rectangle spanned by ``p`` and its opposite corner."""
    gx, gy = corner
    return Rect(min(p.x, gx), min(p.y, gy), max(p.x, gx), max(p.y, gy))


def _trim(
    union: Rect, p: Point, corner: tuple[float, float], sx: float, sy: float
) -> Rect:
    """Trim ``union`` by the lines through a component's opposite corner."""
    gx, gy = corner
    if sx > 0:
        min_x, max_x = union.min_x, min(union.max_x, gx)
    else:
        min_x, max_x = max(union.min_x, gx), union.max_x
    if sy > 0:
        min_y, max_y = union.min_y, min(union.max_y, gy)
    else:
        min_y, max_y = max(union.min_y, gy), union.max_y
    return Rect(min(min_x, max_x), min(min_y, max_y), max(min_x, max_x), max(min_y, max_y))

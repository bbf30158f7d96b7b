"""Inscribed rectangles with the longest perimeter (*Ir-lp*, Section 5.2).

The safe region of an object with respect to a kNN query is the inscribed
rectangle with the longest perimeter (*Ir-lp*) of a disk, of the complement
of a disk within the object's grid cell, or of a ring — always required to
contain the object's current location ``p``.

Deviations from the paper, all documented in DESIGN.md:

* Proposition 5.4 (complement of a circle) states the perimeter
  ``2(a - r sin θ) + 2(b - r cos θ)`` "has a maximum at π/4"; analytically
  it has a *minimum* there (``sin θ + cos θ`` peaks at π/4), so the optimum
  lies at a boundary of the valid θ range.  We evaluate both endpoints and
  keep the longer perimeter, which also subsumes the paper's special
  positions ① and ②.
* Lemma 5.3 (complement of a circle) anchors the optimum at the cell
  corner of ``p``'s quadrant, so its rectangle stops at the axis through
  the disk's centre.  Beside the disk (``|p.x - q.x| >= r``) nothing
  blocks the cell's whole height, and above it nothing blocks the whole
  width: the two full strips are candidates too.
* Proposition 5.5 (ring) assumes an Ir-lp tangent to the inner circle with
  two corners on the outer circle.  When ``p`` sits in the diagonal "corner
  shadow" of the inner circle (|p.x - q.x| < r and |p.y - q.y| < r) neither
  tangent layout can contain ``p``; we add a corner-anchored candidate
  (near corner on the inner circle, far corner on the outer circle) so a
  valid rectangle always exists.
* **Room.**  The paper bounds θ by containment of the point ``p``, which
  puts ``p`` *on* a face of the rectangle whenever the optimal θ clamps to
  a bound.  Every family here takes a ``room`` and bounds θ by containment
  of the axis box ``p ± room`` instead (far faces from ``dx + room``, near
  faces from ``dx - room``); the closed-form optimum is unchanged and only
  clamps into the narrower interval.  A family whose layout cannot hold
  the box (``p`` within ``room`` of an axis through ``q``, or the box
  crossing a circle) falls back to the plain point, and candidate
  selection prefers rectangles that leave ``p`` its room — or whatever
  the cell leaves of it — on all four sides.

All functions accept an optional ``objective`` (a ``Rect -> float`` score,
by default the perimeter).  With a custom objective — the weighted
perimeter of Section 6.2 — the optimal θ has no closed form, and the
paper's three-point elimination search is used instead, over the same θ
interval.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.ring import Ring

Objective = Callable[[Rect], float]

#: Angle (from the y-axis) maximising ``4R sin θ + 2R cos θ`` (ring layout I).
THETA_RING_HORIZONTAL = math.atan(2.0)
#: Angle maximising ``2R sin θ + 4R cos θ`` (ring layout II).
THETA_RING_VERTICAL = math.atan(0.5)
_QUARTER_PI = math.pi / 4.0

_SEARCH_STEPS = 24


def _perimeter(rect: Rect) -> float:
    return rect.perimeter


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


def _clamped_asin(x: float) -> float:
    return math.asin(_clamp(x, -1.0, 1.0))


def _clamped_acos(x: float) -> float:
    return math.acos(_clamp(x, -1.0, 1.0))


def maximize_theta(
    build: Callable[[float], Rect],
    lo: float,
    hi: float,
    objective: Objective,
    steps: int = _SEARCH_STEPS,
) -> Rect:
    """The paper's three-point elimination search for a sub-optimal θ.

    Keeps a range ``[θ_b, θ_e]``; each step evaluates the objective at the
    endpoints and the midpoint and drops whichever of the three scores
    worst (Section 6.2).  Terminates early when the midpoint is the worst,
    i.e. when the range cannot be narrowed further.
    """
    if hi < lo:
        lo = hi
    best_rect = build(lo)
    best_score = objective(best_rect)
    b, e = lo, hi
    for _ in range(steps):
        c = (b + e) / 2.0
        scored = []
        for theta in (b, c, e):
            rect = build(theta)
            score = objective(rect)
            scored.append((score, theta, rect))
            if score > best_score:
                best_score = score
                best_rect = rect
        worst_theta = min(scored, key=lambda item: item[0])[1]
        if worst_theta == b:
            b = c
        elif worst_theta == e:
            e = c
        else:
            break
        if e - b < 1e-9:
            break
    return best_rect


#: Fraction of the valid θ range kept as margin on both sides.  With no
#: room to give (``room == 0``, or a family fallen back to the plain
#: point) the containment bounds put the object exactly *on* a face of
#: the rectangle when the optimal θ clamps to them; nudging θ strictly
#: inside the valid range trades at most a few percent of perimeter for
#: strictly-interior placement.  On top of ``room`` it still pays
#: (docs/PERFORMANCE.md "Storm census").
_INTERIOR_MARGIN = 0.05


def _nudged_bounds(lo: float, hi: float) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` symmetrically by the interior margin."""
    span = hi - lo
    if span <= 0.0:
        return lo, lo
    pad = _INTERIOR_MARGIN * span
    return lo + pad, hi - pad


#: Rounding allowance on the room a preferred candidate must leave: a θ
#: clamped to its bound reproduces ``dx ± room`` only to the last bits.
_ROOM_SLACK = 1.0 - 1e-9


def interior_margin(rect: Rect, p: Point) -> float:
    """Distance from ``p`` to the nearest face of ``rect`` (< 0: outside).

    A safe region whose margin is below what the object moves between
    two position polls is left before the client can look once: the
    region costs a report and buys nothing.
    """
    return min(
        p.x - rect.min_x,
        rect.max_x - p.x,
        p.y - rect.min_y,
        rect.max_y - p.y,
    )


def _room_floor(room: float, cell: Rect, p: Point) -> float:
    """Interior margin a candidate is preferred for: the cell clip wins."""
    return _ROOM_SLACK * min(room, interior_margin(cell, p))


def _pick_best(
    candidates: list[Rect], objective: Objective, p: Point, floor: float
) -> Rect:
    """Best-scoring candidate, preferring ones leaving ``p`` its room.

    A candidate whose interior margin reaches ``floor`` beats every one
    that falls short, regardless of perimeter.  First-maximum scan: ties
    keep the earliest candidate, like ``max`` does.
    """
    best = None
    best_roomy = False
    best_score = 0.0
    for rect in candidates:
        roomy = interior_margin(rect, p) >= floor
        score = objective(rect)
        if (
            best is None
            or (roomy and not best_roomy)
            or (roomy == best_roomy and score > best_score)
        ):
            best = rect
            best_roomy = roomy
            best_score = score
    return best


# ---------------------------------------------------------------------------
# Ir-lp of a circle (Proposition 5.2)
# ---------------------------------------------------------------------------
def irlp_circle(
    circle: Circle,
    p: Point,
    objective: Objective | None = None,
    room: float = 0.0,
) -> Rect:
    """Longest-perimeter inscribed rectangle of a disk containing ``p ± room``.

    The rectangle is ``[q.x ± r sin θ] x [q.y ± r cos θ]`` with θ the angle
    between the corner radius and the y-axis.  Containment of the box
    bounds θ to ``[arcsin((|dx| + room)/r), arccos((|dy| + room)/r)]``;
    the perimeter ``4r (sin θ + cos θ)`` peaks at π/4, so the optimum is
    π/4 clamped into the valid range (Proposition 5.2).  A box poking out
    of the disk falls back to the plain point.

    ``p`` must lie inside the (closed) disk; tiny numerical overshoot is
    tolerated by clamping.
    """
    q, r = circle.center, circle.radius
    if r <= 0.0:
        return Rect.from_point(q)
    dx = min(abs(p.x - q.x), r)
    dy = min(abs(p.y - q.y), r)
    far_x = dx + room
    far_y = dy + room
    if far_x * far_x + far_y * far_y > r * r:
        far_x, far_y = dx, dy
    theta_x = _clamped_asin(far_x / r)
    theta_y = _clamped_acos(far_y / r)
    if theta_y < theta_x:  # p numerically on/over the boundary
        theta_y = theta_x
    lo, hi = _nudged_bounds(theta_x, theta_y)

    def build(theta: float) -> Rect:
        return Rect.from_center(q, r * math.sin(theta), r * math.cos(theta))

    if objective is None:
        return build(_clamp(_QUARTER_PI, lo, hi))
    return maximize_theta(build, lo, hi, objective)


# ---------------------------------------------------------------------------
# Ir-lp of the complement of a circle within a cell (Proposition 5.4)
# ---------------------------------------------------------------------------
def irlp_circle_complement(
    circle: Circle,
    p: Point,
    cell: Rect,
    objective: Objective | None = None,
    room: float = 0.0,
) -> Rect:
    """Longest-perimeter rectangle inside ``cell`` avoiding the open disk.

    ``p`` must be inside ``cell`` and outside the (open) disk.  Following
    Lemma 5.3, the quadrant family spans from a near corner on the
    quarter circle at ``(r sin θ, r cos θ)`` — quadrant-local coordinates
    relative to the disk centre — to the cell corner of the quadrant
    containing ``p``.  Its perimeter decreases towards θ = π/4 (see the
    module docstring), so both endpoints of the valid θ range are
    evaluated, plus the radial direction.  Containment of ``p ± room``
    bounds θ to ``[arccos((dy - room)/r), arcsin((dx - room)/r)]``; a box
    that straddles an axis through the centre or dips into the disk does
    not fit a quadrant and the family falls back to the plain point —
    the two strips (the cell's whole height beside the disk, its whole
    width above it) cover those positions.  Candidates are clipped to
    the cell before they are scored.

    The default-objective case below is a flattened scalar rewrite of
    :func:`_irlp_circle_complement_generic` — no intermediate rectangles,
    closures, or helper calls — kept bit-identical to it
    (``tests/test_irlp.py``; every ``min`` / tie is replicated, the
    generic θ clamps are identities here because the containment ratios
    already lie in ``[0, 1]``).  This is the hottest Ir-lp family (every
    non-result object of every kNN query lands here) and intrinsically
    scalar work, so it is tuned inline.
    """
    if objective is not None:
        return _irlp_circle_complement_generic(circle, p, cell, objective, room)
    q, r = circle.center, circle.radius
    if r <= 0.0:
        return cell
    px, py = p.x, p.y
    qx, qy = q.x, q.y
    min_x, min_y, max_x, max_y = cell.min_x, cell.min_y, cell.max_x, cell.max_y
    x_pos = px >= qx
    y_pos = py >= qy
    dx = px - qx if x_pos else qx - px
    dy = py - qy if y_pos else qy - py

    near_x = dx - room
    near_y = dy - room
    if (
        near_x < 0.0 or near_y < 0.0
        or near_x * near_x + near_y * near_y < r * r
    ):
        near_x = dx
        near_y = dy
    theta_lo = math.acos((near_y if near_y <= r else r) / r)
    theta_hi = math.asin((near_x if near_x <= r else r) / r)
    if theta_hi < theta_lo:  # p numerically inside the disk
        theta_hi = theta_lo
    pad = _INTERIOR_MARGIN * (theta_hi - theta_lo)
    theta_lo += pad
    theta_hi -= pad

    # Candidate θ values: both range endpoints plus the radial direction.
    # A collapsed range contributes one endpoint — the duplicate can never
    # win a strictly-greater comparison, so dropping it changes nothing.
    d = math.hypot(dx, dy)
    if theta_hi > theta_lo:
        if d > 0.0:
            thetas = (theta_lo, theta_hi, math.atan2(dx, dy))
        else:
            thetas = (theta_lo, theta_hi)
    elif d > 0.0:
        thetas = (theta_lo, math.atan2(dx, dy))
    else:
        thetas = (theta_lo,)

    # Each candidate is the part of the cell beyond a near corner, on
    # p's side of it (``_beyond``).
    corners = []
    for theta in thetas:
        x1 = r * math.sin(theta)
        if dx < x1:
            x1 = dx
        y1 = r * math.cos(theta)
        if dy < y1:
            y1 = dy
        corners.append((
            qx + x1 if x_pos else qx - x1, qy + y1 if y_pos else qy - y1,
        ))
    if dx >= r:
        corners.append((
            qx + r if x_pos else qx - r, min_y if y_pos else max_y,
        ))
    if dy >= r:
        corners.append((
            min_x if x_pos else max_x, qy + r if y_pos else qy - r,
        ))

    floor = _ROOM_SLACK * min(
        room, px - min_x, max_x - px, py - min_y, max_y - py
    )
    # The far faces are the cell's own, the same for every candidate.
    far_margin = max_x - px if x_pos else px - min_x
    t = max_y - py if y_pos else py - min_y
    if t < far_margin:
        far_margin = t

    best = None
    best_roomy = False
    best_score = 0.0
    for cx, cy in corners:
        if x_pos:
            if cx < min_x:
                cx = min_x
            width = max_x - cx
            margin = px - cx
        else:
            if cx > max_x:
                cx = max_x
            width = cx - min_x
            margin = cx - px
        if y_pos:
            if cy < min_y:
                cy = min_y
            height = max_y - cy
            t = py - cy
        else:
            if cy > max_y:
                cy = max_y
            height = cy - min_y
            t = cy - py
        if width < 0.0 or height < 0.0:
            # p numerically off the cell: the reference form's fallback.
            return _irlp_circle_complement_generic(
                circle, p, cell, None, room
            )
        if t < margin:
            margin = t
        if far_margin < margin:
            margin = far_margin
        roomy = margin >= floor
        score = 2.0 * (width + height)
        if (
            best is None
            or (roomy and not best_roomy)
            or (roomy == best_roomy and score > best_score)
        ):
            best = (cx, cy)
            best_roomy = roomy
            best_score = score
    cx, cy = best
    return Rect(
        cx if x_pos else min_x, cy if y_pos else min_y,
        max_x if x_pos else cx, max_y if y_pos else cy,
    )


def _irlp_circle_complement_generic(
    circle: Circle,
    p: Point,
    cell: Rect,
    objective: Objective | None = None,
    room: float = 0.0,
) -> Rect:
    """Reference form of :func:`irlp_circle_complement` (any objective)."""
    q, r = circle.center, circle.radius
    if r <= 0.0:
        return cell

    sx = 1.0 if p.x >= q.x else -1.0
    sy = 1.0 if p.y >= q.y else -1.0
    dx = abs(p.x - q.x)
    dy = abs(p.y - q.y)

    # Valid θ range for the box's containment (endpoints are the
    # candidates); the plain point when the box does not fit a quadrant.
    near_x = dx - room
    near_y = dy - room
    if (
        near_x < 0.0 or near_y < 0.0
        or near_x * near_x + near_y * near_y < r * r
    ):
        near_x, near_y = dx, dy
    theta_lo = _clamped_acos(min(near_y, r) / r)
    theta_hi = _clamped_asin(min(near_x, r) / r)
    if theta_hi < theta_lo:  # p numerically inside the disk
        theta_hi = theta_lo
    theta_lo, theta_hi = _nudged_bounds(theta_lo, theta_hi)

    def build(theta: float) -> Rect:
        x1 = min(r * math.sin(theta), dx)
        y1 = min(r * math.cos(theta), dy)
        return _beyond(q.x + sx * x1, q.y + sy * y1, sx, sy, cell, p)

    if objective is None:
        candidates = [build(theta_lo), build(theta_hi)]
    else:
        candidates = [maximize_theta(build, theta_lo, theta_hi, objective)]
    # Radial candidate: the quarter-circle point along p's own direction.
    # Its margins around p grow with p's clearance from the disk, avoiding
    # sliver rectangles for mid-clearance objects.
    d = math.hypot(dx, dy)
    if d > 0.0:
        candidates.append(build(math.atan2(dx, dy)))
    # The strips Lemma 5.3 misses: beside the disk the cell's whole
    # height is free, above it the whole width.
    if dx >= r:
        candidates.append(_beyond(
            q.x + sx * r, cell.min_y if sy > 0 else cell.max_y,
            sx, sy, cell, p,
        ))
    if dy >= r:
        candidates.append(_beyond(
            cell.min_x if sx > 0 else cell.max_x, q.y + sy * r,
            sx, sy, cell, p,
        ))
    return _pick_best(
        candidates, objective or _perimeter, p, _room_floor(room, cell, p)
    )


def _beyond(
    x: float, y: float, sx: float, sy: float, cell: Rect, p: Point
) -> Rect:
    """The part of ``cell`` beyond the corner ``(x, y)``, towards ``p``.

    ``sx`` / ``sy`` give the side of the corner ``p`` is on.  Degenerates
    to the point nearest ``p`` when ``p`` is numerically off the cell.
    """
    if sx > 0:
        lo_x, hi_x = max(x, cell.min_x), cell.max_x
    else:
        lo_x, hi_x = cell.min_x, min(x, cell.max_x)
    if sy > 0:
        lo_y, hi_y = max(y, cell.min_y), cell.max_y
    else:
        lo_y, hi_y = cell.min_y, min(y, cell.max_y)
    if lo_x > hi_x or lo_y > hi_y:
        return Rect.from_point(cell.clamp_point(p))
    return Rect(lo_x, lo_y, hi_x, hi_y)


# ---------------------------------------------------------------------------
# Ir-lp of a ring (Proposition 5.5 + corner-anchored fallback)
# ---------------------------------------------------------------------------
_RING_EPS = 1e-9


def irlp_ring(
    ring: Ring,
    p: Point,
    cell: Rect,
    objective: Objective | None = None,
    room: float = 0.0,
) -> Rect:
    """Longest-perimeter rectangle inside a ring (and ``cell``) containing ``p``.

    Degenerate rings dispatch to the disk / disk-complement cases.  The
    general case evaluates the paper's two tangent layouts (Proposition
    5.5), a corner-anchored family covering the inner circle's corner
    shadow, and a radial box; the best-scoring valid candidate wins, with
    a point-degenerate rectangle at ``p`` as the last resort.  Each
    family bounds its angle by containment of ``p ± room`` when the box
    fits its layout — a tangent layout needs the box clear of the inner
    circle's tangent, the corner family needs it inside one quadrant and
    clear of the inner circle, all need its far corner inside the outer
    one — and by the plain point otherwise.

    Like the complement, the default-objective case is a flattened scalar
    rewrite of the reference form, :func:`_irlp_ring_generic`, kept
    bit-identical to it (``tests/test_irlp.py``): every ranked member of
    every order-sensitive query lands here on each of its reports.
    """
    if ring.is_disk_complement:
        return irlp_circle_complement(
            ring.inner_circle(), p, cell, objective, room
        )
    if ring.is_disk:
        return irlp_circle(ring.outer_circle(), p, objective, room)
    if objective is not None:
        return _irlp_ring_generic(ring, p, cell, objective, room)

    q = ring.center
    r = ring.inner
    big_r = ring.outer
    px, py = p.x, p.y
    qx, qy = q.x, q.y
    x_pos = px >= qx
    y_pos = py >= qy
    dx = px - qx if x_pos else qx - px
    dy = py - qy if y_pos else qy - py
    cap_x = dx if dx <= big_r else big_r
    cap_y = dy if dy <= big_r else big_r

    # Outer-circle θ range holding the plain point, and the one holding
    # the far corner of the box.
    plain_x = math.asin(cap_x / big_r)
    plain_y = math.acos(cap_y / big_r)
    if plain_y < plain_x:  # p numerically on/over the outer boundary
        plain_y = plain_x
    far_x = dx + room
    far_y = dy + room
    far_fits = room > 0.0 and far_x * far_x + far_y * far_y <= big_r * big_r
    if far_fits:
        box_x = math.asin(far_x / big_r)
        box_y = math.acos(far_y / big_r)
        if box_y < box_x:
            box_y = box_x

    candidates = []

    # Layout I: side tangent to the inner circle horizontally, on p's side.
    if dy >= r:
        if far_fits and dy - room >= r:
            lo = box_x
            hi = box_y
        else:
            lo = plain_x
            hi = plain_y
        t = math.acos(r / big_r)
        if t < hi:
            hi = t
        if hi < lo:
            hi = lo
        pad = _INTERIOR_MARGIN * (hi - lo)
        lo += pad
        hi -= pad
        theta = THETA_RING_HORIZONTAL
        theta = lo if theta < lo else hi if theta > hi else theta
        half_w = big_r * math.sin(theta)
        top = big_r * math.cos(theta)
        if top < cap_y:
            top = cap_y
        if y_pos:
            candidates.append((qx - half_w, qy + r, qx + half_w, qy + top))
        else:
            candidates.append((qx - half_w, qy - top, qx + half_w, qy - r))

    # Layout II: side tangent to the inner circle vertically, on p's side.
    if dx >= r:
        if far_fits and dx - room >= r:
            lo = box_x
            hi = box_y
        else:
            lo = plain_x
            hi = plain_y
        t = math.asin(r / big_r)
        if lo < t:
            lo = t
        if hi < lo:
            hi = lo
        pad = _INTERIOR_MARGIN * (hi - lo)
        lo += pad
        hi -= pad
        theta = THETA_RING_VERTICAL
        theta = lo if theta < lo else hi if theta > hi else theta
        half_h = big_r * math.cos(theta)
        right = big_r * math.sin(theta)
        if right < cap_x:
            right = cap_x
        if x_pos:
            candidates.append((qx + r, qy - half_h, qx + right, qy + half_h))
        else:
            candidates.append((qx - right, qy - half_h, qx - r, qy + half_h))

    # Corner-anchored family: near corner on the inner circle, far corner
    # on the outer circle, inside p's quadrant.
    near_x = dx - room
    near_y = dy - room
    if (
        far_fits and near_x >= 0.0 and near_y >= 0.0
        and near_x * near_x + near_y * near_y >= r * r
    ):
        phi_lo = box_x
        phi_hi = box_y
    else:
        near_x = dx
        near_y = dy
        phi_lo = plain_x
        phi_hi = plain_y
    alpha_lo = math.acos((near_y if near_y <= r else r) / r)
    alpha_hi = math.asin((near_x if near_x <= r else r) / r)
    if alpha_hi < alpha_lo:
        alpha_hi = alpha_lo
    pad = _INTERIOR_MARGIN * (alpha_hi - alpha_lo)
    alpha_lo += pad
    alpha_hi -= pad
    pad = _INTERIOR_MARGIN * (phi_hi - phi_lo)
    phi_lo += pad
    phi_hi -= pad
    phi = (
        phi_lo if _QUARTER_PI < phi_lo
        else phi_hi if _QUARTER_PI > phi_hi else _QUARTER_PI
    )
    corner_x = big_r * math.sin(phi)
    if corner_x < cap_x:
        corner_x = cap_x
    corner_y = big_r * math.cos(phi)
    if corner_y < cap_y:
        corner_y = cap_y
    for alpha in (alpha_lo, alpha_hi) if alpha_hi > alpha_lo else (alpha_lo,):
        x1 = r * math.sin(alpha)
        if dx < x1:
            x1 = dx
        y1 = r * math.cos(alpha)
        if dy < y1:
            y1 = dy
        x2 = corner_x if corner_x >= x1 else x1
        y2 = corner_y if corner_y >= y1 else y1
        if x_pos:
            lo_x = qx + x1
            hi_x = qx + x2
        else:
            lo_x = qx - x2
            hi_x = qx - x1
        if y_pos:
            candidates.append((lo_x, qy + y1, hi_x, qy + y2))
        else:
            candidates.append((lo_x, qy - y2, hi_x, qy - y1))

    # Radial box: near and far corners on the two circles along p's own
    # direction from q.
    d = math.hypot(dx, dy)
    if d > 0.0:
        sin_g = dx / d
        cos_g = dy / d
        if x_pos:
            lo_x = qx + r * sin_g
            hi_x = qx + big_r * sin_g
        else:
            lo_x = qx - big_r * sin_g
            hi_x = qx - r * sin_g
        if y_pos:
            candidates.append(
                (lo_x, qy + r * cos_g, hi_x, qy + big_r * cos_g)
            )
        else:
            candidates.append(
                (lo_x, qy - big_r * cos_g, hi_x, qy - r * cos_g)
            )

    min_x, min_y, max_x, max_y = cell.min_x, cell.min_y, cell.max_x, cell.max_y
    floor = _ROOM_SLACK * min(
        room, px - min_x, max_x - px, py - min_y, max_y - py
    )

    eps = _RING_EPS
    outer_limit = big_r + eps
    inner_limit = r - eps
    best = None
    best_roomy = False
    best_score = 0.0
    for lo_x, lo_y, hi_x, hi_y in candidates:
        # Valid: holds p and lies in the closed ring (``_rect_in_ring``).
        if not (
            lo_x - eps <= px <= hi_x + eps and lo_y - eps <= py <= hi_y + eps
        ):
            continue
        ex = qx - lo_x
        t = hi_x - qx
        if t > ex:
            ex = t
        ey = qy - lo_y
        t = hi_y - qy
        if t > ey:
            ey = t
        if math.hypot(ex, ey) > outer_limit:
            continue
        if qx < lo_x:
            ex = lo_x - qx
        elif qx > hi_x:
            ex = qx - hi_x
        else:
            ex = 0.0
        if qy < lo_y:
            ey = lo_y - qy
        elif qy > hi_y:
            ey = qy - hi_y
        else:
            ey = 0.0
        if math.hypot(ex, ey) < inner_limit:
            continue
        # Clip into the cell (``_shrink_into_cell``).
        if lo_x < min_x:
            lo_x = min_x
        if lo_y < min_y:
            lo_y = min_y
        if hi_x > max_x:
            hi_x = max_x
        if hi_y > max_y:
            hi_y = max_y
        if lo_x > hi_x or lo_y > hi_y:
            # p numerically off the cell: the reference form's fallback.
            return _irlp_ring_generic(ring, p, cell, None, room)
        margin = px - lo_x
        t = hi_x - px
        if t < margin:
            margin = t
        t = py - lo_y
        if t < margin:
            margin = t
        t = hi_y - py
        if t < margin:
            margin = t
        roomy = margin >= floor
        score = 2.0 * ((hi_x - lo_x) + (hi_y - lo_y))
        if (
            best is None
            or (roomy and not best_roomy)
            or (roomy == best_roomy and score > best_score)
        ):
            best = (lo_x, lo_y, hi_x, hi_y)
            best_roomy = roomy
            best_score = score
    if best is None:
        return Rect.from_point(p)
    return Rect(*best)


def _irlp_ring_generic(
    ring: Ring,
    p: Point,
    cell: Rect,
    objective: Objective | None = None,
    room: float = 0.0,
) -> Rect:
    """Reference form of :func:`irlp_ring`'s general case (any objective)."""
    q, r, big_r = ring.center, ring.inner, ring.outer
    dx = abs(p.x - q.x)
    dy = abs(p.y - q.y)
    sx = 1.0 if p.x >= q.x else -1.0
    sy = 1.0 if p.y >= q.y else -1.0
    far_x = dx + room
    far_y = dy + room
    far_fits = far_x * far_x + far_y * far_y <= big_r * big_r

    def outer_bounds(room: float) -> tuple[float, float]:
        """θ range on the outer circle whose rectangle holds ``p ± room``."""
        theta_x = _clamped_asin(min(dx + room, big_r) / big_r)
        theta_y = _clamped_acos(min(dy + room, big_r) / big_r)
        return theta_x, max(theta_y, theta_x)

    def best_of(build, lo: float, hi: float, closed_form: float) -> Rect:
        lo, hi = _nudged_bounds(lo, hi)
        if objective is None:
            return build(_clamp(closed_form, lo, hi))
        return maximize_theta(build, lo, hi, objective)

    candidates: list[Rect] = []

    # Layout I: side tangent to the inner circle horizontally, on p's side.
    # Local frame: x symmetric in [-R sin θ, R sin θ], y in [r, R cos θ].
    if dy >= r:
        def build_horizontal(theta: float) -> Rect:
            half_w = big_r * math.sin(theta)
            top = max(big_r * math.cos(theta), min(dy, big_r))
            ys = sorted((q.y + sy * r, q.y + sy * top))
            return Rect(q.x - half_w, ys[0], q.x + half_w, ys[1])

        lo, hi = outer_bounds(
            room if far_fits and dy - room >= r else 0.0
        )
        hi = max(min(hi, _clamped_acos(r / big_r)), lo)
        candidates.append(
            best_of(build_horizontal, lo, hi, THETA_RING_HORIZONTAL)
        )

    # Layout II: side tangent to the inner circle vertically, on p's side.
    if dx >= r:
        def build_vertical(theta: float) -> Rect:
            half_h = big_r * math.cos(theta)
            right = max(big_r * math.sin(theta), min(dx, big_r))
            xs = sorted((q.x + sx * r, q.x + sx * right))
            return Rect(xs[0], q.y - half_h, xs[1], q.y + half_h)

        lo, hi = outer_bounds(
            room if far_fits and dx - room >= r else 0.0
        )
        lo = max(lo, _clamped_asin(r / big_r))
        hi = max(hi, lo)
        candidates.append(
            best_of(build_vertical, lo, hi, THETA_RING_VERTICAL)
        )

    # Corner-anchored candidate: near corner on the inner circle, far
    # corner on the outer circle, inside p's quadrant.  Always applicable;
    # essential when dx < r and dy < r (the corner shadow).
    near_x = dx - room
    near_y = dy - room
    if (
        far_fits and near_x >= 0.0 and near_y >= 0.0
        and near_x * near_x + near_y * near_y >= r * r
    ):
        phi_lo, phi_hi = outer_bounds(room)
    else:
        near_x, near_y = dx, dy
        phi_lo, phi_hi = outer_bounds(0.0)
    alpha_lo = _clamped_acos(min(near_y, r) / r)
    alpha_hi = _clamped_asin(min(near_x, r) / r)
    if alpha_hi < alpha_lo:
        alpha_hi = alpha_lo
    alpha_lo, alpha_hi = _nudged_bounds(alpha_lo, alpha_hi)
    phi_lo, phi_hi = _nudged_bounds(phi_lo, phi_hi)
    phi = _clamp(_QUARTER_PI, phi_lo, phi_hi)
    corner_x = max(big_r * math.sin(phi), min(dx, big_r))
    corner_y = max(big_r * math.cos(phi), min(dy, big_r))

    def build_corner(alpha: float) -> Rect:
        x1 = min(r * math.sin(alpha), dx)
        y1 = min(r * math.cos(alpha), dy)
        xs = sorted((q.x + sx * x1, q.x + sx * max(corner_x, x1)))
        ys = sorted((q.y + sy * y1, q.y + sy * max(corner_y, y1)))
        return Rect(xs[0], ys[0], xs[1], ys[1])

    if objective is None:
        candidates.append(build_corner(alpha_lo))
        candidates.append(build_corner(alpha_hi))
    else:
        candidates.append(
            maximize_theta(build_corner, alpha_lo, alpha_hi, objective)
        )

    # Radial box: near and far corners on the two circles along p's own
    # direction from q.  Always valid for p strictly inside the ring, with
    # interior margins proportional to the radial slack on both sides —
    # the tangent layouts and the corner family can all degenerate to
    # slivers for mid-ring diagonal positions, this candidate cannot.
    d = math.hypot(dx, dy)
    if d > 0.0:
        sin_g = dx / d
        cos_g = dy / d
        xs = sorted((q.x + sx * r * sin_g, q.x + sx * big_r * sin_g))
        ys = sorted((q.y + sy * r * cos_g, q.y + sy * big_r * cos_g))
        candidates.append(Rect(xs[0], ys[0], xs[1], ys[1]))

    valid = [
        _shrink_into_cell(rect, cell, p)
        for rect in candidates
        if rect.contains_point(p, eps=_RING_EPS)
        and _rect_in_ring(rect, ring, _RING_EPS)
    ]
    if not valid:
        return Rect.from_point(p)
    return _pick_best(
        valid, objective or _perimeter, p, _room_floor(room, cell, p)
    )


def _rect_in_ring(rect: Rect, ring: Ring, eps: float) -> bool:
    """Whether ``rect`` lies in the closed ring, with tolerance ``eps``."""
    if rect.max_dist_to_point(ring.center) > ring.outer + eps:
        return False
    return rect.min_dist_to_point(ring.center) >= ring.inner - eps


def _shrink_into_cell(rect: Rect, cell: Rect, p: Point) -> Rect:
    """Clip ``rect`` to ``cell``; ``p`` (inside both) stays contained."""
    clipped = rect.intersection(cell)
    if clipped is None:  # numerically possible only when p is on an edge
        return Rect.from_point(cell.clamp_point(p))
    return clipped

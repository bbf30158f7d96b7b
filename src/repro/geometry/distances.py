"""The paper's distance notation: d, delta (min) and Delta (max).

``delta(S, T)`` is the minimum distance between a pair of points in areas
``S`` and ``T``; ``Delta(S, T)`` is the maximum.  Either argument may also
be a :class:`~repro.geometry.point.Point` (an area of one point).
"""

from __future__ import annotations

import math

from repro.geometry.point import Point
from repro.geometry.rect import Rect

Geometry = Point | Rect


def min_dist_point_rect(p: Point, r: Rect) -> float:
    """Minimum distance between a point and a rectangle (0 if inside)."""
    return r.min_dist_to_point(p)


def max_dist_point_rect(p: Point, r: Rect) -> float:
    """Maximum distance between a point and a rectangle."""
    return r.max_dist_to_point(p)


def min_dist_rect_rect(a: Rect, b: Rect) -> float:
    """Minimum distance between two rectangles (0 when they intersect)."""
    dx = max(a.min_x - b.max_x, 0.0, b.min_x - a.max_x)
    dy = max(a.min_y - b.max_y, 0.0, b.min_y - a.max_y)
    return math.sqrt(dx * dx + dy * dy)


def max_dist_rect_rect(a: Rect, b: Rect) -> float:
    """Maximum distance between two rectangles (farthest corner pair)."""
    dx = max(a.max_x - b.min_x, b.max_x - a.min_x)
    dy = max(a.max_y - b.min_y, b.max_y - a.min_y)
    return math.sqrt(dx * dx + dy * dy)


def delta(s: Geometry, t: Geometry) -> float:
    """Minimum distance between geometries ``s`` and ``t``.

    Mirrors the paper's ``delta(S, T)``; accepts any combination of points
    and rectangles.
    """
    if isinstance(s, Point):
        if isinstance(t, Point):
            return s.distance_to(t)
        return min_dist_point_rect(s, t)
    if isinstance(t, Point):
        return min_dist_point_rect(t, s)
    return min_dist_rect_rect(s, t)


def Delta(s: Geometry, t: Geometry) -> float:  # noqa: N802 — paper notation
    """Maximum distance between geometries ``s`` and ``t``.

    Mirrors the paper's ``Delta(S, T)``.
    """
    if isinstance(s, Point):
        if isinstance(t, Point):
            return s.distance_to(t)
        return max_dist_point_rect(s, t)
    if isinstance(t, Point):
        return max_dist_point_rect(t, s)
    return max_dist_rect_rect(s, t)

"""Unit and property tests for the geometry kernel."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    Circle,
    Delta,
    LinearMotion,
    Point,
    Rect,
    Ring,
    delta,
    exit_time_from_circle,
    exit_time_from_rect,
)

coords = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
unit_coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def points(coord=coords):
    return st.builds(Point, coord, coord)


def overlap_area(a: Rect, b: Rect) -> float:
    """Area the two rectangles share (0 when disjoint or only touching)."""
    inter = a.intersection(b)
    return 0.0 if inter is None else inter.width * inter.height


def overlaps_open(region: Rect, obstacle: Rect) -> bool:
    """Whether the closed ``region`` meets the open interior of ``obstacle``.

    Per axis, closed ``[a, b]`` meets open ``(c, d)`` iff ``a < d``,
    ``c < b`` and ``c < d``: a zero-area strip through the interior
    meets it, though it shares no area.
    """
    return (
        region.min_x < obstacle.max_x
        and obstacle.min_x < region.max_x
        and obstacle.min_x < obstacle.max_x
        and region.min_y < obstacle.max_y
        and obstacle.min_y < region.max_y
        and obstacle.min_y < obstacle.max_y
    )


def corners(r: Rect) -> tuple[Point, Point, Point, Point]:
    """The four corners, counter-clockwise from the lower-left."""
    return (
        Point(r.min_x, r.min_y),
        Point(r.max_x, r.min_y),
        Point(r.max_x, r.max_y),
        Point(r.min_x, r.max_y),
    )


def rects(coord=coords):
    return st.builds(
        lambda a, b, c, d: Rect(min(a, c), min(b, d), max(a, c), max(b, d)),
        coord,
        coord,
        coord,
        coord,
    )


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_squared_distance(self):
        assert Point(1, 1).squared_distance_to(Point(4, 5)) == 25.0

    def test_dominates(self):
        assert Point(2, 2).dominates(Point(1, 1))
        assert not Point(2, 1).dominates(Point(1, 1))
        assert not Point(1, 1).dominates(Point(1, 1))

    def test_translated(self):
        assert Point(1, 2).translated(0.5, -0.5) == Point(1.5, 1.5)

    def test_iter_and_tuple(self):
        assert tuple(Point(1, 2)) == (1.0, 2.0)
        assert Point(1, 2).as_tuple() == (1, 2)

    @given(points(), points())
    def test_distance_symmetry(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points(), points(), points())
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9


class TestRect:
    def test_malformed_raises(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_measures(self):
        r = Rect(0, 0, 2, 1)
        assert r.width == 2
        assert r.height == 1
        assert r.perimeter == 6
        assert r.center == Point(1, 0.5)

    def test_containment(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0.5, 0.5))
        assert r.contains_point(Point(0, 0))  # closed boundary
        assert not r.contains_point(Point(1.0001, 0.5))
        assert r.contains_point(Point(1.0001, 0.5), eps=0.001)
        assert r.contains_rect(Rect(0.2, 0.2, 0.8, 0.8))
        assert not r.contains_rect(Rect(0.2, 0.2, 1.2, 0.8))

    def test_intersection_disjoint(self):
        assert Rect(0, 0, 1, 1).intersection(Rect(2, 2, 3, 3)) is None

    def test_intersection_touching(self):
        r = Rect(0, 0, 1, 1).intersection(Rect(1, 0, 2, 1))
        assert r == Rect(1, 0, 1, 1)
        assert r.is_degenerate

    def test_min_max_dist(self):
        r = Rect(0, 0, 1, 1)
        assert r.min_dist_to_point(Point(0.5, 0.5)) == 0.0
        assert r.min_dist_to_point(Point(2, 0.5)) == 1.0
        assert r.max_dist_to_point(Point(0, 0)) == pytest.approx(math.sqrt(2))

    def test_clamp(self):
        r = Rect(0, 0, 1, 1)
        assert r.clamp_point(Point(2, -1)) == Point(1, 0)
        assert r.clamp_point(Point(0.3, 0.7)) == Point(0.3, 0.7)

    def test_expanded_shrink_clamps(self):
        r = Rect(0, 0, 1, 1).expanded(-5)
        assert r.width == 0 and r.height == 0
        assert r.center == Point(0.5, 0.5)

    def test_from_center(self):
        assert Rect.from_center(Point(0.5, 0.5), 0.5, 0.25) == Rect(
            0, 0.25, 1, 0.75
        )
        with pytest.raises(ValueError):
            Rect.from_center(Point(0, 0), -1, 0)

    @given(rects(), rects())
    def test_intersection_contained(self, a, b):
        inter = a.intersection(b)
        if inter is None:
            assert not a.intersects(b)
        else:
            assert a.contains_rect(inter) and b.contains_rect(inter)

    @given(rects(), points())
    def test_min_le_max_dist(self, r, p):
        assert r.min_dist_to_point(p) <= r.max_dist_to_point(p) + 1e-12

    @given(rects(), points())
    def test_min_dist_matches_clamp(self, r, p):
        assert r.min_dist_to_point(p) == pytest.approx(
            r.clamp_point(p).distance_to(p)
        )

    @given(rects(), points())
    def test_max_dist_is_corner_dist(self, r, p):
        corner_max = max(p.distance_to(c) for c in corners(r))
        assert r.max_dist_to_point(p) == pytest.approx(corner_max)


class TestCircle:
    def test_negative_radius(self):
        with pytest.raises(ValueError):
            Circle(Point(0, 0), -1)

    def test_contains(self):
        c = Circle(Point(0, 0), 1)
        assert c.contains_point(Point(1, 0))
        assert not c.contains_point(Point(1.001, 0))

    def test_rect_relations(self):
        c = Circle(Point(0, 0), 1)
        inside = Rect(-0.5, -0.5, 0.5, 0.5)
        outside = Rect(2, 2, 3, 3)
        crossing = Rect(0.5, -0.5, 2, 0.5)
        assert c.contains_rect(inside)
        assert c.excludes_rect(outside)
        assert not c.intersects_rect(outside)
        assert c.intersects_rect(crossing) and not c.contains_rect(crossing)

    def test_bounding_rect(self):
        assert Circle(Point(1, 1), 2).bounding_rect() == Rect(-1, -1, 3, 3)

    def test_measures(self):
        c = Circle(Point(0, 0), 2)
        assert c.area == pytest.approx(4 * math.pi)
        assert c.circumference == pytest.approx(4 * math.pi)

    @given(points(), st.floats(min_value=0, max_value=5), rects())
    def test_contains_rect_implies_corners_inside(self, center, r, rect):
        c = Circle(center, r)
        if c.contains_rect(rect):
            for corner in corners(rect):
                assert c.contains_point(corner, eps=1e-9)


class TestRing:
    def test_validation(self):
        with pytest.raises(ValueError):
            Ring(Point(0, 0), -1, 2)
        with pytest.raises(ValueError):
            Ring(Point(0, 0), 2, 1)

    def test_degenerate_forms(self):
        disk = Ring(Point(0, 0), 0, 1)
        assert disk.is_disk and not disk.is_disk_complement
        unbounded = Ring(Point(0, 0), 1, float("inf"))
        assert unbounded.is_disk_complement
        with pytest.raises(ValueError):
            unbounded.outer_circle()

    def test_contains_point(self):
        ring = Ring(Point(0, 0), 1, 2)
        assert ring.contains_point(Point(1.5, 0))
        assert not ring.contains_point(Point(0.5, 0))
        assert not ring.contains_point(Point(2.5, 0))

    def test_contains_rect(self):
        ring = Ring(Point(0, 0), 1, 5)
        assert ring.contains_rect(Rect(2, 2, 3, 3))
        assert not ring.contains_rect(Rect(0, 0, 3, 3))  # crosses inner disk
        assert not ring.contains_rect(Rect(4, 4, 6, 6))  # exits outer circle


class TestDistancesDispatch:
    def test_point_point(self):
        assert delta(Point(0, 0), Point(3, 4)) == 5
        assert Delta(Point(0, 0), Point(3, 4)) == 5

    def test_point_rect_both_orders(self):
        r = Rect(1, 1, 2, 2)
        p = Point(0, 1.5)
        assert delta(p, r) == 1.0
        assert delta(r, p) == 1.0
        assert Delta(p, r) == pytest.approx(math.hypot(2, 0.5))
        assert Delta(r, p) == pytest.approx(math.hypot(2, 0.5))

    def test_rect_rect(self):
        a, b = Rect(0, 0, 1, 1), Rect(2, 0, 3, 1)
        assert delta(a, b) == 1.0
        assert Delta(a, b) == pytest.approx(math.hypot(3, 1))
        assert delta(a, a) == 0.0

    @given(rects(), rects(), points(), points())
    def test_sampled_points_within_bounds(self, a, b, u, v):
        pa = a.clamp_point(u)
        pb = b.clamp_point(v)
        d = pa.distance_to(pb)
        assert delta(a, b) <= d + 1e-9
        assert Delta(a, b) >= d - 1e-9


class TestMotion:
    def test_exit_time_axis_aligned(self):
        r = Rect(0, 0, 1, 1)
        t = exit_time_from_rect(Point(0.5, 0.5), 1.0, 0.0, r)
        assert t == pytest.approx(0.5)

    def test_exit_time_diagonal(self):
        r = Rect(0, 0, 1, 1)
        t = exit_time_from_rect(Point(0.5, 0.5), 1.0, 2.0, r)
        assert t == pytest.approx(0.25)  # hits the top first

    def test_exit_time_outside_is_zero(self):
        assert exit_time_from_rect(Point(2, 2), 1, 1, Rect(0, 0, 1, 1)) == 0.0

    def test_exit_time_stationary_is_inf(self):
        t = exit_time_from_rect(Point(0.5, 0.5), 0, 0, Rect(0, 0, 1, 1))
        assert t == float("inf")

    def test_circle_exit(self):
        c = Circle(Point(0, 0), 1)
        assert exit_time_from_circle(Point(0, 0), 1, 0, c) == pytest.approx(1)
        assert exit_time_from_circle(Point(0.5, 0), 1, 0, c) == pytest.approx(0.5)
        assert exit_time_from_circle(Point(2, 0), 1, 0, c) == 0.0
        assert exit_time_from_circle(Point(0, 0), 0, 0, c) == float("inf")

    def test_linear_motion_position(self):
        m = LinearMotion(Point(0, 0), 1.0, -1.0, start_time=2.0)
        assert m.position_at(3.0) == Point(1.0, -1.0)
        assert m.speed == pytest.approx(math.sqrt(2))

    def test_linear_motion_exit_absolute_time(self):
        m = LinearMotion(Point(0.5, 0.5), 1.0, 0.0, start_time=10.0)
        assert m.exit_time_from_rect(Rect(0, 0, 1, 1)) == pytest.approx(10.5)
        assert m.exit_time_from_circle(
            Circle(Point(0.5, 0.5), 0.25)
        ) == pytest.approx(10.25)

    @given(
        points(unit_coords),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    )
    def test_exit_point_is_on_boundary(self, start, vx, vy):
        rect = Rect(0, 0, 1, 1)
        t = exit_time_from_rect(start, vx, vy, rect)
        if t == 0.0 or t == float("inf"):
            return
        exit_point = Point(start.x + vx * t, start.y + vy * t)
        assert rect.contains_point(exit_point, eps=1e-9)
        on_boundary = (
            abs(exit_point.x - rect.min_x) < 1e-9
            or abs(exit_point.x - rect.max_x) < 1e-9
            or abs(exit_point.y - rect.min_y) < 1e-9
            or abs(exit_point.y - rect.max_y) < 1e-9
        )
        assert on_boundary
        # Slightly before the exit the motion is still strictly inside.
        before = Point(start.x + vx * t * 0.999, start.y + vy * t * 0.999)
        assert rect.contains_point(before, eps=1e-9)

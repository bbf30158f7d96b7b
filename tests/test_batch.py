"""Tests for the batch range-query safe region (Section 5.3)."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.batch import batch_range_safe_region
from repro.geometry import Point, Rect
from tests.test_geometry import overlap_area, overlaps_open

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def small_rects():
    return st.builds(
        lambda x, y, w, h: Rect(x, y, min(x + 0.05 + 0.2 * w, 1.0), min(y + 0.05 + 0.2 * h, 1.0)),
        unit_floats, unit_floats, unit_floats, unit_floats,
    )


def test_open_overlap_sees_a_zero_area_strip():
    obstacle = Rect(0.4, 0.4, 0.6, 0.6)
    strip = Rect(0.5, 0.0, 0.5, 1.0)  # through the open interior
    assert overlap_area(strip, obstacle) == 0.0
    assert overlaps_open(strip, obstacle)
    # The closed boundary is not the interior.
    assert not overlaps_open(Rect(0.4, 0.0, 0.4, 1.0), obstacle)
    assert not overlaps_open(Rect(0.0, 0.0, 0.4, 1.0), obstacle)
    assert not overlaps_open(Rect(0.0, 0.6, 1.0, 1.0), obstacle)


class TestNoObstacles:
    def test_returns_cell(self):
        assert batch_range_safe_region(Point(0.5, 0.5), UNIT, []) == UNIT

    def test_p_on_cell_corner(self):
        rect = batch_range_safe_region(Point(0.0, 0.0), UNIT, [])
        assert rect == UNIT


class TestSingleObstacle:
    def test_p_on_cell_edge_gets_no_strip_through_the_obstacle(self):
        # The obstacle straddles p's horizontal line: a zero-height strip
        # along that line has no area yet lies in the open obstacle.
        cell = Rect(0.0, 1 / 3, 1 / 3, 2 / 3)
        obstacle = Rect(0.1, 0.4, 0.45, 0.75)
        rect = batch_range_safe_region(Point(0.0, 0.5), cell, [obstacle])
        assert rect.contains_point(Point(0.0, 0.5))
        assert rect.max_x <= obstacle.min_x or not (
            rect.min_y < obstacle.max_y and obstacle.min_y < rect.max_y
        )

    def test_avoids_and_contains(self):
        obstacle = Rect(0.4, 0.4, 0.6, 0.6)
        p = Point(0.2, 0.2)
        rect = batch_range_safe_region(p, UNIT, [obstacle])
        assert rect.contains_point(p)
        assert not overlaps_open(rect, obstacle)

    def test_obstacle_outside_cell_ignored(self):
        obstacle = Rect(2.0, 2.0, 3.0, 3.0)
        rect = batch_range_safe_region(Point(0.5, 0.5), UNIT, [obstacle])
        assert rect == UNIT

    def test_obstacle_straddling_cell_border(self):
        obstacle = Rect(0.9, 0.4, 1.5, 0.6)
        p = Point(0.5, 0.5)
        rect = batch_range_safe_region(p, UNIT, [obstacle])
        assert rect.contains_point(p)
        assert not overlaps_open(rect, obstacle)

    def test_p_on_obstacle_edge(self):
        obstacle = Rect(0.4, 0.4, 0.6, 0.6)
        p = Point(0.4, 0.5)  # exactly on the left edge
        rect = batch_range_safe_region(p, UNIT, [obstacle])
        assert rect.contains_point(p)
        assert not overlaps_open(rect, obstacle)

    def test_prefers_interior_over_perimeter(self):
        """A trim pinning p on the union face loses to an interior trim."""
        obstacle = Rect(0.45, 0.0, 0.55, 0.49)
        p = Point(0.5, 0.5)  # just above the obstacle, inside its x-span
        rect = batch_range_safe_region(p, UNIT, [obstacle])
        assert rect.contains_point(p)
        assert not overlaps_open(rect, obstacle)
        # p must not sit exactly on the trimmed face.
        assert min(
            p.x - rect.min_x, rect.max_x - p.x, p.y - rect.min_y, rect.max_y - p.y
        ) > 0


class TestManyObstacles:
    def build_random(self, seed, count):
        rng = random.Random(seed)
        obstacles = []
        while len(obstacles) < count:
            x, y = rng.random() * 0.9, rng.random() * 0.9
            w, h = rng.uniform(0.02, 0.15), rng.uniform(0.02, 0.15)
            obstacles.append(Rect(x, y, min(x + w, 1), min(y + h, 1)))
        return obstacles

    @pytest.mark.parametrize("seed", range(8))
    def test_avoidance_invariant(self, seed):
        obstacles = self.build_random(seed, 12)
        rng = random.Random(seed + 100)
        for _ in range(50):
            p = Point(rng.random(), rng.random())
            if any(
                o.min_x < p.x < o.max_x and o.min_y < p.y < o.max_y
                for o in obstacles
            ):
                continue  # p strictly inside an obstacle: precondition fails
            rect = batch_range_safe_region(p, UNIT, obstacles)
            assert rect.contains_point(p, eps=1e-12)
            assert UNIT.contains_rect(rect)
            for obstacle in obstacles:
                assert not overlaps_open(rect, obstacle)

    def test_competitive_with_best_single_component(self):
        """The 4-quadrant union is at least as good as staying in one quadrant."""
        obstacles = self.build_random(3, 6)
        p = Point(0.52, 0.48)
        if any(
            o.min_x < p.x < o.max_x and o.min_y < p.y < o.max_y for o in obstacles
        ):
            pytest.skip("p inside an obstacle for this seed")
        rect = batch_range_safe_region(p, UNIT, obstacles)
        assert rect.perimeter > 0


@settings(max_examples=120)
@given(
    st.lists(small_rects(), min_size=0, max_size=8),
    unit_floats,
    unit_floats,
)
def test_property_avoid_contain_clip(obstacles, px, py):
    p = Point(px, py)
    assume(
        not any(
            o.min_x < p.x < o.max_x and o.min_y < p.y < o.max_y
            for o in obstacles
        )
    )
    rect = batch_range_safe_region(p, UNIT, obstacles)
    assert rect.contains_point(p, eps=1e-12)
    assert UNIT.contains_rect(rect)
    for obstacle in obstacles:
        assert not overlaps_open(rect, obstacle)

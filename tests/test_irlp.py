"""Tests for the Ir-lp constructions of Section 5.2."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.enhancements import weighted_perimeter_objective
from repro.core.irlp import (
    _irlp_circle_complement_generic,
    _irlp_ring_generic,
    interior_margin,
    irlp_circle,
    irlp_circle_complement,
    irlp_ring,
    maximize_theta,
)
from repro.geometry import Circle, Point, Rect, Ring

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2 * math.pi, allow_nan=False)


def rect_in_circle(rect: Rect, circle: Circle, eps=1e-9) -> bool:
    return rect.max_dist_to_point(circle.center) <= circle.radius + eps


def rect_avoids_circle(rect: Rect, circle: Circle, eps=1e-9) -> bool:
    return rect.min_dist_to_point(circle.center) >= circle.radius - eps


class TestIrlpCircle:
    def test_centered_point_gives_square(self):
        circle = Circle(Point(0.5, 0.5), 0.2)
        rect = irlp_circle(circle, Point(0.5, 0.5))
        # Unconstrained optimum is the inscribed square (theta = pi/4).
        assert rect.width == pytest.approx(rect.height, rel=1e-6)
        assert rect.perimeter == pytest.approx(8 * 0.2 / math.sqrt(2), rel=1e-6)

    def test_zero_radius(self):
        circle = Circle(Point(0.3, 0.3), 0.0)
        assert irlp_circle(circle, Point(0.3, 0.3)) == Rect.from_point(Point(0.3, 0.3))

    def test_contains_p_and_inscribed(self):
        circle = Circle(Point(0.5, 0.5), 0.25)
        p = Point(0.62, 0.41)
        rect = irlp_circle(circle, p)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_in_circle(rect, circle)

    def test_interior_margin_positive_for_interior_p(self):
        circle = Circle(Point(0.5, 0.5), 0.25)
        p = Point(0.6, 0.55)
        rect = irlp_circle(circle, p)
        assert interior_margin(rect, p) > 0

    @given(
        st.floats(min_value=0.05, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.99),
        angles,
    )
    def test_property_contains_and_inscribed(self, radius, rho, phi):
        circle = Circle(Point(0.5, 0.5), radius)
        p = Point(
            0.5 + rho * radius * math.cos(phi),
            0.5 + rho * radius * math.sin(phi),
        )
        rect = irlp_circle(circle, p)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_in_circle(rect, circle)

    @given(
        st.floats(min_value=0.05, max_value=0.4),
        st.floats(min_value=0.0, max_value=0.7),
        angles,
    )
    def test_property_margin_scales_with_clearance(self, radius, rho, phi):
        """For p well inside the disk the rectangle holds p strictly."""
        circle = Circle(Point(0.5, 0.5), radius)
        p = Point(
            0.5 + rho * radius * math.cos(phi),
            0.5 + rho * radius * math.sin(phi),
        )
        rect = irlp_circle(circle, p)
        assert interior_margin(rect, p) > 0.0

    def test_near_optimal_perimeter(self):
        """The closed form is within the nudge factor of the true optimum."""
        circle = Circle(Point(0.5, 0.5), 0.2)
        p = Point(0.58, 0.43)
        rect = irlp_circle(circle, p)
        best = 0.0
        r = circle.radius
        for i in range(2000):
            theta = (i + 0.5) / 2000 * (math.pi / 2)
            cand = Rect.from_center(
                circle.center, r * math.sin(theta), r * math.cos(theta)
            )
            if cand.contains_point(p):
                best = max(best, cand.perimeter)
        assert rect.perimeter >= 0.85 * best


class TestIrlpComplement:
    def test_p_far_from_circle_gets_large_rect(self):
        circle = Circle(Point(0.2, 0.2), 0.1)
        p = Point(0.8, 0.8)
        rect = irlp_circle_complement(circle, p, UNIT)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_avoids_circle(rect, circle)
        assert rect.perimeter > 1.0  # most of the cell

    def test_zero_radius_returns_cell(self):
        circle = Circle(Point(0.5, 0.5), 0.0)
        assert irlp_circle_complement(circle, Point(0.7, 0.7), UNIT) == UNIT

    def test_result_clipped_to_cell(self):
        circle = Circle(Point(0.5, 0.5), 0.3)
        cell = Rect(0.0, 0.0, 0.5, 0.5)
        p = Point(0.1, 0.1)
        rect = irlp_circle_complement(circle, p, cell)
        assert cell.contains_rect(rect)
        assert rect.contains_point(p, eps=1e-9)

    @given(
        st.floats(min_value=0.05, max_value=0.3),
        st.floats(min_value=1.001, max_value=3.0),
        angles,
        unit_floats,
        unit_floats,
    )
    @settings(max_examples=200)
    def test_property_contains_avoids(self, radius, rho, phi, cx, cy):
        center = Point(0.2 + 0.6 * cx, 0.2 + 0.6 * cy)
        circle = Circle(center, radius)
        p = Point(
            center.x + rho * radius * math.cos(phi),
            center.y + rho * radius * math.sin(phi),
        )
        assume(UNIT.contains_point(p))
        rect = irlp_circle_complement(circle, p, UNIT)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_avoids_circle(rect, circle)
        assert UNIT.contains_rect(rect)

    def test_strict_interior_for_clear_p(self):
        circle = Circle(Point(0.3, 0.3), 0.1)
        p = Point(0.5, 0.5)
        rect = irlp_circle_complement(circle, p, UNIT)
        assert interior_margin(rect, p) > 0.01


class TestIrlpRing:
    def test_dispatch_disk(self):
        ring = Ring(Point(0.5, 0.5), 0.0, 0.2)
        p = Point(0.55, 0.5)
        rect = irlp_ring(ring, p, UNIT)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_in_circle(rect, ring.outer_circle())

    def test_dispatch_complement(self):
        ring = Ring(Point(0.5, 0.5), 0.2, float("inf"))
        p = Point(0.9, 0.9)
        rect = irlp_ring(ring, p, UNIT)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_avoids_circle(rect, ring.inner_circle())

    def test_axis_position_uses_tangent_layout(self):
        """p straight above the centre: the wide tangent layout applies."""
        ring = Ring(Point(0.5, 0.5), 0.1, 0.3)
        p = Point(0.5, 0.75)
        rect = irlp_ring(ring, p, UNIT)
        assert rect.contains_point(p, eps=1e-9)
        assert rect.width > 0.15  # tangentially wide

    def test_corner_shadow_position(self):
        """Diagonal p inside the inner circle's bounding box corner region."""
        ring = Ring(Point(0.5, 0.5), 0.2, 0.3)
        d = 0.22 / math.sqrt(2)
        p = Point(0.5 + d, 0.5 + d)
        assert ring.contains_point(p)
        rect = irlp_ring(ring, p, UNIT)
        assert rect.contains_point(p, eps=1e-9)
        assert rect.min_dist_to_point(ring.center) >= ring.inner - 1e-9
        assert rect.max_dist_to_point(ring.center) <= ring.outer + 1e-9

    def test_mid_ring_margin_scales_with_slack(self):
        """An object mid-ring must not get a sliver (storm regression)."""
        ring = Ring(Point(0.0, 0.0), 0.2, 0.26)
        d = 0.23
        p = Point(d * math.sin(0.65), d * math.cos(0.65))
        rect = irlp_ring(ring, p, Rect(-1, -1, 1, 1))
        # Radial slack is 0.03 both ways; the chosen rectangle may trade
        # margin for perimeter (Theorem 5.1), but must never be a sliver.
        assert interior_margin(rect, p) > 0.001

    @given(
        st.floats(min_value=0.05, max_value=0.25),
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.001, max_value=0.999),
        angles,
    )
    @settings(max_examples=200)
    def test_property_valid_ring_rect(self, inner, width, frac, phi):
        ring = Ring(Point(0.5, 0.5), inner, inner + width)
        d = inner + frac * width
        p = Point(
            0.5 + d * math.cos(phi),
            0.5 + d * math.sin(phi),
        )
        cell = Rect(-0.5, -0.5, 1.5, 1.5)
        rect = irlp_ring(ring, p, cell)
        assert rect.contains_point(p, eps=1e-9)
        assert rect.min_dist_to_point(ring.center) >= ring.inner - 1e-9
        assert rect.max_dist_to_point(ring.center) <= ring.outer + 1e-9

    def test_degenerate_ring_returns_point_like(self):
        ring = Ring(Point(0.5, 0.5), 0.2, 0.2)
        p = Point(0.7, 0.5)
        rect = irlp_ring(ring, p, UNIT)
        assert rect.contains_point(p, eps=1e-9)


class TestMaximizeTheta:
    def test_finds_interior_maximum(self):
        # Perimeter of an inscribed rect peaks at pi/4.
        circle = Circle(Point(0.0, 0.0), 1.0)

        def build(theta):
            return Rect.from_center(
                circle.center, math.sin(theta), math.cos(theta)
            )

        rect = maximize_theta(build, 0.0, math.pi / 2, lambda r: r.perimeter)
        assert rect.perimeter == pytest.approx(8 / math.sqrt(2), rel=1e-3)

    def test_monotone_objective_picks_endpoint(self):
        def build(theta):
            return Rect(0, 0, max(theta, 1e-9), 1)

        rect = maximize_theta(build, 0.1, 0.9, lambda r: r.width)
        assert rect.width == pytest.approx(0.9, abs=1e-3)

    def test_inverted_range_collapses(self):
        def build(theta):
            return Rect(0, 0, 1, 1)

        rect = maximize_theta(build, 0.5, 0.2, lambda r: r.perimeter)
        assert rect == Rect(0, 0, 1, 1)


class TestInteriorMargin:
    def test_center(self):
        assert interior_margin(Rect(0, 0, 2, 2), Point(1, 1)) == 1.0

    def test_on_face(self):
        assert interior_margin(Rect(0, 0, 2, 2), Point(0, 1)) == 0.0

    def test_outside_negative(self):
        assert interior_margin(Rect(0, 0, 2, 2), Point(-1, 1)) == -1.0


# ----------------------------------------------------------------------
# Room: every family keeps the axis box p ± room inside its rectangle
# ----------------------------------------------------------------------
CELL = Rect(0.4, 0.4, 0.6, 0.6)
SQRT2 = math.sqrt(2.0)


def steady(p: Point):
    """A Section 6.2 objective: heading up-left, steadiness 0.5."""
    return weighted_perimeter_objective(
        p, Point(p.x + 0.01, p.y - 0.003), 0.5
    )


def leaves_room(rect: Rect, p: Point, room: float, cell: Rect) -> bool:
    """The guarantee: ``room`` on all four sides, or what the cell leaves."""
    floor = min(room, interior_margin(cell, p))
    return interior_margin(rect, p) >= floor * (1 - 1e-9)


@st.composite
def annulus_worlds(draw):
    """``(q, p, d, gap_in, gap_out, share)`` with ``p`` inside ``CELL``."""
    p = Point(
        draw(st.floats(min_value=CELL.min_x, max_value=CELL.max_x)),
        draw(st.floats(min_value=CELL.min_y, max_value=CELL.max_y)),
    )
    d = draw(st.floats(min_value=0.012, max_value=0.15))
    phi = draw(angles)
    q = Point(p.x - d * math.cos(phi), p.y - d * math.sin(phi))
    # The object's real distance, not the one it was placed at.
    d = q.distance_to(p)
    gaps = st.floats(min_value=1e-4, max_value=0.01)
    # Shares past 1 ask for a box the annulus cannot hold.
    share = draw(st.floats(min_value=0.05, max_value=3.0))
    return q, p, d, draw(gaps), draw(gaps), share


class TestRoom:
    @given(annulus_worlds(), st.booleans())
    @settings(max_examples=300)
    def test_circle(self, world, weighted):
        q, p, d, _, gap, share = world
        circle = Circle(q, d + gap)
        room = share * gap / SQRT2
        rect = irlp_circle(circle, p, steady(p) if weighted else None, room)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_in_circle(rect, circle)
        # Precondition: the box's far corner is inside the disk.
        far = math.hypot(abs(p.x - q.x) + room, abs(p.y - q.y) + room)
        if far <= circle.radius * (1 - 1e-9):
            assert interior_margin(rect, p) >= room * (1 - 1e-9)

    @given(annulus_worlds(), st.booleans())
    @settings(max_examples=300)
    def test_complement(self, world, weighted):
        q, p, d, gap, _, share = world
        circle = Circle(q, d - gap)
        r = circle.radius
        room = share * gap / SQRT2
        rect = irlp_circle_complement(
            circle, p, CELL, steady(p) if weighted else None, room
        )
        assert CELL.contains_rect(rect)
        assert rect.contains_point(p, eps=1e-9)
        assert rect_avoids_circle(rect, circle)
        # Precondition: the box sits inside one quadrant clear of the
        # disk, or clear of it beside / above (the strips).
        dx, dy = abs(p.x - q.x), abs(p.y - q.y)
        in_quadrant = (
            dx >= room and dy >= room
            and math.hypot(dx - room, dy - room) >= r * (1 + 1e-9)
        )
        if in_quadrant or dx - r >= room or dy - r >= room:
            assert leaves_room(rect, p, room, CELL)

    @given(annulus_worlds(), st.booleans())
    @settings(max_examples=300)
    def test_ring(self, world, weighted):
        q, p, d, gap_in, gap_out, share = world
        ring = Ring(q, d - gap_in, d + gap_out)
        r, big_r = ring.inner, ring.outer
        room = share * min(gap_in, gap_out) / SQRT2
        rect = irlp_ring(
            ring, p, CELL, steady(p) if weighted else None, room
        )
        assert CELL.contains_rect(rect)
        assert rect.contains_point(p, eps=1e-9)
        assert rect.min_dist_to_point(q) >= r - 1e-9
        assert rect.max_dist_to_point(q) <= big_r + 1e-9
        # Precondition: the box's far corner is inside the outer circle
        # and the box is clear of the inner circle's tangent on p's side
        # (a tangent layout) or inside one quadrant clear of the inner
        # circle (the corner family).
        dx, dy = abs(p.x - q.x), abs(p.y - q.y)
        far_fits = math.hypot(dx + room, dy + room) <= big_r * (1 - 1e-9)
        in_quadrant = (
            dx >= room and dy >= room
            and math.hypot(dx - room, dy - room) >= r * (1 + 1e-9)
        )
        if far_fits and (dy - room >= r or dx - room >= r or in_quadrant):
            assert leaves_room(rect, p, room, CELL)

    @given(annulus_worlds())
    def test_share_the_server_uses_always_fits(self, world):
        """Up to 1/√2 of the clearance some layout always holds the box."""
        q, p, d, gap_in, gap_out, _ = world
        room = 0.7 * min(gap_in, gap_out) / SQRT2
        ring = Ring(q, d - gap_in, d + gap_out)
        assert leaves_room(irlp_ring(ring, p, CELL, None, room), p, room, CELL)
        outside = Circle(q, d - gap_in)
        room = 0.7 * gap_in / SQRT2
        assert leaves_room(
            irlp_circle_complement(outside, p, CELL, None, room),
            p, room, CELL,
        )

    @given(
        st.floats(min_value=0.45, max_value=0.55),
        st.floats(min_value=0.01, max_value=0.03),
        st.floats(min_value=1e-4, max_value=0.01),
        st.floats(min_value=-0.03, max_value=0.03),
        st.sampled_from([-1, 1]),
        st.booleans(),
    )
    def test_strips_never_intersect_the_open_disk(
        self, c, r, gap, off, side, upright
    ):
        """Beside (above) the disk the region may span the whole cell."""
        q = Point(c, c)
        along, across = side * (r + gap), off
        p = Point(q.x + across, q.y + along) if upright else Point(
            q.x + along, q.y + across
        )
        circle = Circle(q, r)
        rect = irlp_circle_complement(circle, p, CELL, None, 0.7 * gap / SQRT2)
        assert rect.contains_point(p)
        assert rect.min_dist_to_point(q) >= r * (1 - 1e-12)
        if abs(off) < 0.7 * gap / SQRT2:
            # Lemma 5.3's quadrant would put p within ``off`` of a face.
            span = (rect.min_x, rect.max_x) if upright else (
                rect.min_y, rect.max_y
            )
            assert span == (CELL.min_x, CELL.max_x)


def sampled_annuli(n: int, seed: int):
    """``(q, inner, outer, p, room, cell)`` rows shaped like server traffic:
    rings 1e-5 .. 2e-3 wide around objects in a paper-scale cell, the
    centre in or beside it, rooms at 0, the server's share, and too big.
    """
    rng = random.Random(seed)
    cell = Rect(0.48, 0.48, 0.5, 0.5)
    for i in range(n):
        q = Point(rng.uniform(0.47, 0.51), rng.uniform(0.47, 0.51))
        if i % 7 == 0:  # on an axis through q
            p = Point(q.x, rng.uniform(0.48, 0.5))
            if not cell.contains_point(p):
                p = Point(rng.uniform(0.48, 0.5), rng.uniform(0.48, 0.5))
        else:
            p = Point(rng.uniform(0.48, 0.5), rng.uniform(0.48, 0.5))
        d = q.distance_to(p)
        gap_in = rng.uniform(1e-5, 2e-3)
        gap_out = rng.uniform(1e-5, 2e-3)
        inner = max(d - gap_in, 1e-6)
        share = (0.0, 0.7, 0.7, 0.7, 2.5)[i % 5]
        room = share * min(d - inner, gap_out) / SQRT2
        yield q, inner, d + gap_out, p, room, cell


class TestFlatFormsMatchTheirReference:
    """The default-objective fast paths, bit for bit."""

    def test_ring(self):
        for q, inner, outer, p, room, cell in sampled_annuli(10_000, seed=18):
            ring = Ring(q, inner, outer)
            flat = irlp_ring(ring, p, cell, None, room)
            assert flat == _irlp_ring_generic(
                ring, p, cell, None, room
            ), (ring, p, room)

    def test_complement(self):
        for q, inner, _, p, room, cell in sampled_annuli(10_000, seed=81):
            circle = Circle(q, inner)
            flat = irlp_circle_complement(circle, p, cell, None, room)
            assert flat == _irlp_circle_complement_generic(
                circle, p, cell, None, room
            ), (circle, p, room)

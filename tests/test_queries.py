"""Tests for query objects and quarantine areas (Section 3.3)."""

import pytest

from repro.core.queries import KNNQuery, RangeQuery
from repro.geometry import Point, Rect


class TestRangeQuery:
    def setup_method(self):
        self.query = RangeQuery(Rect(0.4, 0.4, 0.6, 0.6), query_id="r")

    def test_quarantine_is_rect(self):
        assert self.query.quarantine_bounding_rect() == self.query.rect
        assert self.query.quarantine_contains(Point(0.5, 0.5))
        assert not self.query.quarantine_contains(Point(0.3, 0.5))

    def test_quarantine_overlaps(self):
        assert self.query.quarantine_overlaps(Rect(0.5, 0.5, 0.9, 0.9))
        assert not self.query.quarantine_overlaps(Rect(0.7, 0.7, 0.9, 0.9))

    def test_affected_enter(self):
        assert self.query.is_affected_by("o", Point(0.5, 0.5))

    def test_affected_leave(self):
        self.query.results = {"o"}
        assert self.query.is_affected_by("o", Point(0.3, 0.5))

    def test_unaffected_inside(self):
        self.query.results = {"o"}
        assert not self.query.is_affected_by("o", Point(0.45, 0.5))

    def test_unaffected_outside(self):
        assert not self.query.is_affected_by("o", Point(0.1, 0.1))

    def test_new_object_affected_only_if_inside(self):
        assert self.query.is_affected_by("new", Point(0.5, 0.5))
        assert not self.query.is_affected_by("new", Point(0.1, 0.1))
        # Closed: the edge is inside.
        assert self.query.is_affected_by("new", Point(0.6, 0.5))

    def test_snapshot_is_frozen(self):
        self.query.results = {1, 2}
        snap = self.query.result_snapshot()
        assert snap == frozenset({1, 2})
        self.query.results.add(3)
        assert snap == frozenset({1, 2})

    def test_auto_query_id(self):
        a, b = RangeQuery(Rect(0, 0, 1, 1)), RangeQuery(Rect(0, 0, 1, 1))
        assert a.query_id != b.query_id

    def test_identity_semantics(self):
        a = RangeQuery(Rect(0, 0, 1, 1))
        b = RangeQuery(Rect(0, 0, 1, 1))
        assert a != b
        assert len({a, b}) == 2


class TestKNNQuery:
    def setup_method(self):
        self.query = KNNQuery(Point(0.5, 0.5), k=2, query_id="k")
        self.query.radius = 0.1
        self.query.results = ["a", "b"]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KNNQuery(Point(0, 0), k=0)

    def test_quarantine_circle(self):
        circle = self.query.quarantine_circle()
        assert circle.center == Point(0.5, 0.5)
        assert circle.radius == 0.1

    def test_quarantine_contains(self):
        assert self.query.quarantine_contains(Point(0.55, 0.5))
        assert not self.query.quarantine_contains(Point(0.7, 0.5))

    def test_quarantine_overlaps_is_circle_precise(self):
        # This rect overlaps the bounding box but not the circle.
        corner_box = Rect(0.58, 0.58, 0.61, 0.61)
        assert self.query.quarantine_bounding_rect().intersects(corner_box)
        assert not self.query.quarantine_overlaps(corner_box)

    def test_order_sensitive_affected_any_inside(self):
        inside, outside = Point(0.55, 0.5), Point(0.9, 0.9)
        assert self.query.is_affected_by("x", inside)  # enters
        assert self.query.is_affected_by("a", outside)  # leaves
        assert self.query.is_affected_by("a", inside)  # order may change
        assert not self.query.is_affected_by("x", outside)
        # Closed: a non-member landing on the circle may tie the k-th.
        self.query.radius = 0.125
        assert self.query.is_affected_by("x", Point(0.625, 0.5))

    def test_order_insensitive_affected_only_on_crossing(self):
        query = KNNQuery(Point(0.5, 0.5), k=2, order_sensitive=False)
        query.radius = 0.1
        query.results = ["a", "b"]
        inside, outside = Point(0.55, 0.5), Point(0.9, 0.9)
        assert query.is_affected_by("x", inside)
        assert query.is_affected_by("a", outside)
        assert not query.is_affected_by("a", inside)
        assert not query.is_affected_by("x", outside)
        # On the circle either side may tie: always affected.
        query.radius = 0.125
        on = Point(0.5, 0.375)
        assert query.is_affected_by("a", on)
        assert query.is_affected_by("x", on)

    def test_snapshot_types(self):
        assert self.query.result_snapshot() == ("a", "b")
        insensitive = KNNQuery(Point(0, 0), k=2, order_sensitive=False)
        insensitive.results = ["a", "b"]
        assert insensitive.result_snapshot() == frozenset({"a", "b"})

    def test_order_matters_in_sensitive_snapshot(self):
        snap = self.query.result_snapshot()
        self.query.results = ["b", "a"]
        assert self.query.result_snapshot() != snap

    def test_unevaluated_query_has_empty_quarantine(self):
        fresh = KNNQuery(Point(0.5, 0.5), k=3)
        assert fresh.radius == 0.0
        assert not fresh.quarantine_contains(Point(0.5, 0.6))

"""Edge-case and stress tests for the object index (``CellObjectIndex``)."""

import random

from repro.geometry import Point, Rect
from tests.brute_index import BruteForceIndex
from tests.test_cell_object_index import cell_index, load


class TestDegenerateRectangles:
    """Point-sized rectangles are the common case (fresh updates)."""

    def test_all_points_tree(self):
        rng = random.Random(0)
        index = cell_index()
        points = {}
        for oid in range(300):
            p = Point(rng.random(), rng.random())
            points[oid] = p
            index.insert(oid, Rect.from_point(p))
        index.validate()
        probe = Rect(0.25, 0.25, 0.75, 0.75)
        expected = sorted(
            oid for oid, p in points.items() if probe.contains_point(p)
        )
        assert sorted(index.search(probe)) == expected

    def test_identical_rectangles(self):
        index = cell_index()
        same = Rect(0.5, 0.5, 0.5, 0.5)
        for oid in range(50):
            index.insert(oid, same)
        index.validate()
        assert sorted(index.search(same)) == list(range(50))
        for oid in range(0, 50, 2):
            index.delete(oid)
        index.validate()
        assert len(index) == 25

    def test_collinear_rectangles(self):
        index = cell_index()
        for oid in range(100):
            x = oid / 100
            index.insert(oid, Rect(x, 0.5, x, 0.5))
        index.validate()
        found = index.search(Rect(0.25, 0.4, 0.5, 0.6))
        assert sorted(found) == list(range(25, 51))


class TestExtremeShapes:
    def test_long_thin_rectangles(self):
        rng = random.Random(1)
        index = cell_index()
        oracle = BruteForceIndex()
        for oid in range(200):
            if oid % 2:
                y = rng.random() * 0.999
                rect = Rect(rng.random() * 0.5, y, 1.0, y + 1e-4)  # wide
            else:
                x = rng.random() * 0.999
                rect = Rect(x, 0.0, x + 1e-4, 1.0)  # tall
            index.insert(oid, rect)
            oracle.insert(oid, rect)
        index.validate()
        probe = Rect(0.4, 0.4, 0.6, 0.6)
        assert sorted(index.search(probe)) == sorted(oracle.search(probe))

    def test_nested_rectangles(self):
        index = cell_index()
        for oid in range(60):
            margin = oid / 130
            index.insert(oid, Rect(margin, margin, 1 - margin, 1 - margin))
        index.validate()
        inner_probe = Rect.from_point(Point(0.5, 0.5))
        assert len(index.search(inner_probe)) == 60


class TestUpdateChurn:
    def test_oscillating_updates(self):
        """Objects bouncing between two spots — the monitoring hot path."""
        index = cell_index()
        a = Rect(0.1, 0.1, 0.12, 0.12)
        b = Rect(0.8, 0.8, 0.82, 0.82)
        for oid in range(40):
            index.insert(oid, a)
        for round_ in range(10):
            target = b if round_ % 2 == 0 else a
            for oid in range(40):
                index.update(oid, target)
            index.validate()
        # Ten rounds: the final round (index 9) moved everything back to a.
        assert sorted(index.search(a)) == list(range(40))
        assert sorted(index.search(b)) == []

    def test_grow_shrink_cycles(self):
        index = cell_index()
        rng = random.Random(2)
        live = set()
        for cycle in range(6):
            for oid in range(cycle * 50, cycle * 50 + 50):
                x, y = rng.random() * 0.9, rng.random() * 0.9
                index.insert(oid, Rect(x, y, x + 0.05, y + 0.05))
                live.add(oid)
            victims = rng.sample(sorted(live), 30)
            for oid in victims:
                index.delete(oid)
                live.discard(oid)
            index.validate()
        assert len(index) == len(live)


class TestBulkLoadEdges:
    def test_single_item(self):
        index = load([("only", Rect(0.5, 0.5, 0.6, 0.6))])
        assert len(index) == 1
        index.validate()

    def test_large_load_and_query(self):
        rng = random.Random(3)
        pairs = [
            (i, Rect.from_point(Point(rng.random(), rng.random())))
            for i in range(5000)
        ]
        index = load(pairs, m=32)
        index.validate()
        found = index.search(Rect(0.0, 0.0, 0.1, 0.1))
        oracle = [
            oid for oid, rect in pairs
            if Rect(0.0, 0.0, 0.1, 0.1).contains_point(rect.center)
        ]
        assert sorted(found) == sorted(oracle)

    def test_nn_on_bulk_tree(self):
        rng = random.Random(4)
        pairs = [
            (i, Rect.from_point(Point(rng.random(), rng.random())))
            for i in range(800)
        ]
        index = load(pairs, m=16)
        q = Point(0.37, 0.62)
        got = [oid for oid, _, _ in index.nearest_iter(q)][:10]
        expected = sorted(
            (q.distance_to(rect.center), oid) for oid, rect in pairs
        )[:10]
        assert got == [oid for _, oid in expected]

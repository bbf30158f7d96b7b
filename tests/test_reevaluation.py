"""Tests for incremental reevaluation (Section 4.3)."""

import random

import pytest

from repro.core.evaluation import evaluate_knn
from repro.core.queries import KNNQuery, RangeQuery
from repro.core.reevaluation import reevaluate_knn, reevaluate_range
from repro.geometry import Point, Rect
from tests.test_cell_object_index import cell_index


class TestReevaluateRange:
    def setup_method(self):
        self.query = RangeQuery(Rect(0.4, 0.4, 0.6, 0.6))
        self.query.results = {"a"}

    def test_enter(self):
        outcome = reevaluate_range(self.query, "b", Point(0.5, 0.5))
        assert outcome.changed
        assert self.query.results == {"a", "b"}

    def test_leave(self):
        outcome = reevaluate_range(self.query, "a", Point(0.1, 0.1))
        assert outcome.changed
        assert self.query.results == set()

    def test_noop_inside(self):
        outcome = reevaluate_range(self.query, "a", Point(0.45, 0.55))
        assert not outcome.changed
        assert self.query.results == {"a"}

    def test_noop_outside(self):
        outcome = reevaluate_range(self.query, "b", Point(0.1, 0.1))
        assert not outcome.changed

    def test_never_probes_or_touches_quarantine(self):
        outcome = reevaluate_range(self.query, "b", Point(0.5, 0.5))
        assert not outcome.probed
        assert not outcome.quarantine_changed


class KNNWorld:
    """A kNN query with maintained state over an exact-position world."""

    def __init__(self, k=3, seed=0, n=30, order_sensitive=True):
        rng = random.Random(seed)
        self.positions = {
            oid: Point(rng.random(), rng.random()) for oid in range(n)
        }
        self.index = cell_index()
        for oid, p in self.positions.items():
            self.index.insert(oid, Rect.from_point(p))
        self.query = KNNQuery(Point(0.5, 0.5), k, order_sensitive=order_sensitive)
        evaluation = evaluate_knn(
            self.index, self.query.center, k, self.probe,
            order_sensitive=order_sensitive,
        )
        self.query.results = list(evaluation.results)
        self.query.radius = evaluation.radius
        self.probe_log = []

    def probe(self, oid):
        self.probe_log.append(oid)
        return self.positions[oid]

    def move(self, oid, p):
        """Simulate an object's location update arriving at the server."""
        self.positions[oid] = p
        self.index.update(oid, Rect.from_point(p))
        outcome = reevaluate_knn(
            self.query, oid, p, self.index, self.probe, self.index.rect_of,
        )
        return outcome

    def true_knn(self):
        center = self.query.center
        ranked = sorted(
            self.positions,
            key=lambda o: (center.squared_distance_to(self.positions[o]), o),
        )
        return ranked[: self.query.k]


class TestCaseOne:
    """A result leaves the quarantine area."""

    def test_replacement_found(self):
        world = KNNWorld(seed=1)
        leaver = world.query.results[0]
        outcome = world.move(leaver, Point(0.99, 0.99))
        assert outcome.changed
        assert outcome.quarantine_changed
        assert world.query.results == world.true_knn()

    def test_leaver_can_remain_kth(self):
        """The leaver exits the circle but may still be the k-th NN."""
        world = KNNWorld(seed=2, k=2, n=6)
        leaver = world.query.results[-1]
        # Move just past the quarantine boundary, still closer than others.
        q = world.query.center
        boundary = world.query.radius + 1e-6
        target = Point(q.x + boundary, q.y)
        world.move(leaver, target)
        assert world.query.results == world.true_knn()


class TestCaseTwo:
    """A non-result enters the quarantine area."""

    def test_newcomer_displaces_last(self):
        world = KNNWorld(seed=3)
        outsider = next(
            o for o in world.positions if o not in world.query.results
        )
        q = world.query.center
        outcome = world.move(outsider, Point(q.x + 1e-4, q.y))
        assert outcome.changed
        assert world.query.results[0] == outsider
        assert world.query.results == world.true_knn()

    def test_at_most_one_probe(self):
        for seed in range(10):
            world = KNNWorld(seed=seed)
            outsider = next(
                o for o in world.positions if o not in world.query.results
            )
            q = world.query.center
            world.probe_log.clear()
            world.move(outsider, Point(q.x + 0.01, q.y + 0.01))
            assert len(world.probe_log) <= 1

    def test_enter_but_still_beyond_kth(self):
        """Entering the circle without displacing anyone shrinks it."""
        world = KNNWorld(seed=4)
        results_before = list(world.query.results)
        # Find a spot inside the old circle but farther than the k-th NN.
        q = world.query.center
        kth = world.positions[results_before[-1]]
        kth_dist = q.distance_to(kth)
        radius = world.query.radius
        if radius - kth_dist < 1e-9:
            pytest.skip("no gap between k-th NN and quarantine boundary")
        target_dist = (kth_dist + radius) / 2
        outsider = next(
            o for o in world.positions if o not in results_before
        )
        outcome = world.move(outsider, Point(q.x + target_dist, q.y))
        assert world.query.results == results_before
        assert world.query.radius < radius  # shrunk to exclude the visitor
        assert outcome.quarantine_changed

    def test_dropped_neighbour_probed_beyond_the_circle_cannot_grow_it(self):
        """A stray k-th neighbour must not pull the radius over outsiders.

        The newcomer lands inside the k-th neighbour's distance interval,
        so that neighbour is probed — and answers from beyond the old
        circle (it left its region between two position polls).  The
        midpoint of the new k-th and the dropped neighbour then lies
        past the old radius, over an outsider nobody probed.
        """
        q = Point(0.5, 0.5)
        index = cell_index()
        index.insert("a", Rect.from_point(Point(0.52, 0.5)))       # d = 0.02
        index.insert("b", Rect(0.54, 0.5, 0.56, 0.5))       # d in [0.04, 0.06]
        index.insert("outsider", Rect.from_point(Point(0.572, 0.5)))  # 0.072
        index.insert("n", Rect.from_point(Point(0.55, 0.5)))       # d = 0.05
        query = KNNQuery(q, 2)
        query.results = ["a", "b"]
        query.radius = 0.07
        outcome = reevaluate_knn(
            query, "n", Point(0.55, 0.5), index,
            lambda oid: {"b": Point(0.6, 0.5)}[oid],               # d = 0.10
            index.rect_of,
        )
        assert outcome.case == "knn_enters"
        assert list(outcome.probed) == ["b"]
        assert query.results == ["a", "n"]
        # (0.05 + 0.10) / 2 = 0.075 would cover the outsider at 0.072.
        assert 0.05 <= query.radius <= 0.07


class TestCaseThree:
    """A result moves within the quarantine area."""

    def test_rank_swap(self):
        world = KNNWorld(seed=5)
        q = world.query.center
        mover = world.query.results[-1]
        nearest = world.positions[world.query.results[0]]
        # Move the last result closer than the current first.
        d = q.distance_to(nearest)
        world.move(mover, Point(q.x + d / 2, q.y))
        assert world.query.results[0] == mover
        assert world.query.results == world.true_knn()

    def test_rank_preserved_on_small_move(self):
        world = KNNWorld(seed=6)
        mover = world.query.results[1]
        p = world.positions[mover]
        outcome = world.move(mover, Point(p.x + 1e-9, p.y))
        assert world.query.results == world.true_knn()
        assert not outcome.quarantine_changed

    def test_radius_unchanged(self):
        world = KNNWorld(seed=7)
        radius = world.query.radius
        mover = world.query.results[0]
        p = world.positions[mover]
        world.move(mover, Point(p.x + 1e-6, p.y + 1e-6))
        assert world.query.radius == radius


class TestOrderInsensitive:
    def test_reevaluated_from_scratch(self):
        world = KNNWorld(seed=8, order_sensitive=False)
        outsider = next(
            o for o in world.positions if o not in world.query.results
        )
        q = world.query.center
        outcome = world.move(outsider, Point(q.x + 1e-4, q.y))
        assert outcome.changed
        assert outcome.quarantine_changed
        assert set(world.query.results) == set(world.true_knn())


class TestRandomisedMaintenance:
    @pytest.mark.parametrize("order_sensitive", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_many_moves_stay_exact(self, seed, order_sensitive):
        world = KNNWorld(seed=seed, k=4, n=40, order_sensitive=order_sensitive)
        rng = random.Random(seed + 77)
        for _ in range(120):
            oid = rng.randrange(40)
            p = world.positions[oid]
            new = Point(
                min(max(p.x + rng.uniform(-0.08, 0.08), 0), 1),
                min(max(p.y + rng.uniform(-0.08, 0.08), 0), 1),
            )
            if world.query.is_affected_by(oid, new):
                world.move(oid, new)
            else:
                world.positions[oid] = new
                world.index.update(oid, Rect.from_point(new))
            truth = world.true_knn()
            if order_sensitive:
                assert world.query.results == truth
            else:
                assert set(world.query.results) == set(truth)

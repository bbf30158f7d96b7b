"""Tests for query evaluation over safe regions (Section 4, Algorithm 2)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluation import evaluate_knn, evaluate_range
from repro.geometry import Point, Rect
from tests.brute_index import BruteForceIndex
from tests.test_cell_object_index import cell_index
from tests.test_geometry import near_unit, rect_columns, rects


class World:
    """Objects with exact positions, indexed by conservative safe regions."""

    def __init__(self, seed=0, n=60, region_half=0.04, index_cls=cell_index):
        rng = random.Random(seed)
        self.positions = {}
        self.index = index_cls()
        for oid in range(n):
            p = Point(rng.random(), rng.random())
            # Safe region: random rectangle guaranteed to contain p.
            dx1, dx2 = rng.uniform(0, region_half), rng.uniform(0, region_half)
            dy1, dy2 = rng.uniform(0, region_half), rng.uniform(0, region_half)
            region = Rect(
                max(p.x - dx1, 0), max(p.y - dy1, 0),
                min(p.x + dx2, 1), min(p.y + dy2, 1),
            )
            self.positions[oid] = p
            self.index.insert(oid, region)
        self.probe_log = []

    def probe(self, oid):
        self.probe_log.append(oid)
        return self.positions[oid]

    def true_range(self, rect):
        return {o for o, p in self.positions.items() if rect.contains_point(p)}

    def true_knn(self, q, k, exclude=frozenset()):
        ranked = sorted(
            (o for o in self.positions if o not in exclude),
            key=lambda o: q.distance_to(self.positions[o]),
        )
        return ranked[:k]


class TestEvaluateRange:
    def test_matches_truth(self):
        world = World(seed=1)
        rect = Rect(0.3, 0.3, 0.7, 0.7)
        outcome = evaluate_range(world.index, rect, world.probe)
        assert set(outcome.results) == world.true_range(rect)

    def test_probes_only_boundary_overlaps(self):
        world = World(seed=2)
        rect = Rect(0.25, 0.25, 0.75, 0.75)
        outcome = evaluate_range(world.index, rect, world.probe)
        for oid in outcome.probed:
            region = world.index.rect_of(oid)
            assert region.intersects(rect) and not rect.contains_rect(region)

    def test_empty_result(self):
        world = World(seed=3)
        outcome = evaluate_range(world.index, Rect(2, 2, 3, 3), world.probe)
        assert outcome.results == []
        assert not outcome.probed

    def test_degenerate_query_rect(self):
        world = World(seed=4)
        p = world.positions[0]
        outcome = evaluate_range(
            world.index, Rect.from_point(p), world.probe
        )
        assert 0 in outcome.results

    @pytest.mark.parametrize("seed", range(5))
    def test_random_queries(self, seed):
        world = World(seed=seed, n=100)
        rng = random.Random(seed + 50)
        for _ in range(10):
            x, y = rng.random() * 0.7, rng.random() * 0.7
            rect = Rect(x, y, x + 0.3, y + 0.3)
            outcome = evaluate_range(world.index, rect, world.probe)
            assert set(outcome.results) == world.true_range(rect)


class TestEvaluateKNNOrdered:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_truth(self, seed, k):
        world = World(seed=seed)
        q = Point(0.5, 0.5)
        outcome = evaluate_knn(world.index, q, k, world.probe)
        assert outcome.results == world.true_knn(q, k)

    def test_radius_separates_results_from_rest(self):
        world = World(seed=7)
        q = Point(0.4, 0.6)
        k = 4
        outcome = evaluate_knn(world.index, q, k, world.probe)
        results = set(outcome.results)
        # Every result's *post-evaluation* stored geometry fits inside the
        # quarantine circle; every non-result's stays outside.
        for oid in world.positions:
            region = world.index.rect_of(oid)
            if oid in outcome.probed:
                region = Rect.from_point(outcome.probed[oid])
            if oid in results:
                assert region.max_dist_to_point(q) <= outcome.radius + 1e-9
            else:
                assert region.min_dist_to_point(q) >= outcome.radius - 1e-9

    def test_k_larger_than_population(self):
        world = World(seed=8, n=3)
        outcome = evaluate_knn(world.index, Point(0.5, 0.5), 10, world.probe)
        assert len(outcome.results) == 3
        assert outcome.radius == pytest.approx(math.sqrt(2.0))

    def test_exclude(self):
        world = World(seed=9)
        q = Point(0.5, 0.5)
        banned = set(world.true_knn(q, 2))
        outcome = evaluate_knn(
            world.index, q, 3, world.probe,
            exclude=lambda oid: oid in banned,
        )
        assert outcome.results == world.true_knn(q, 3, exclude=banned)

    def test_invalid_k(self):
        world = World(seed=10)
        with pytest.raises(ValueError):
            evaluate_knn(world.index, Point(0, 0), 0, world.probe)

    def test_empty_index(self):
        index = cell_index()
        outcome = evaluate_knn(index, Point(0.5, 0.5), 3, lambda o: None)
        assert outcome.results == []

    def test_point_regions_need_no_probes(self):
        """Degenerate safe regions are exact: zero probes necessary."""
        index = cell_index()
        positions = {}
        rng = random.Random(11)
        for oid in range(40):
            p = Point(rng.random(), rng.random())
            positions[oid] = p
            index.insert(oid, Rect.from_point(p))
        probes = []
        outcome = evaluate_knn(
            index, Point(0.5, 0.5), 5,
            lambda oid: probes.append(oid) or positions[oid],
        )
        assert not probes
        ranked = sorted(positions, key=lambda o: Point(0.5, 0.5).distance_to(positions[o]))
        assert outcome.results == ranked[:5]

    def test_lazy_probe_bound(self):
        """Probes stay well below the population (lazy probing works)."""
        world = World(seed=12, n=200, region_half=0.02)
        evaluate_knn(world.index, Point(0.5, 0.5), 5, world.probe)
        assert len(world.probe_log) < 40


class TestEvaluateKNNUnordered:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 4])
    def test_set_matches_truth(self, seed, k):
        world = World(seed=seed)
        q = Point(0.45, 0.55)
        outcome = evaluate_knn(
            world.index, q, k, world.probe, order_sensitive=False
        )
        assert set(outcome.results) == set(world.true_knn(q, k))

    def test_fewer_probes_than_ordered(self):
        seeds = range(8)
        ordered_probes = unordered_probes = 0
        for seed in seeds:
            world = World(seed=seed, n=150, region_half=0.05)
            evaluate_knn(world.index, Point(0.5, 0.5), 6, world.probe)
            ordered_probes += len(world.probe_log)
            world = World(seed=seed, n=150, region_half=0.05)
            evaluate_knn(
                world.index, Point(0.5, 0.5), 6, world.probe,
                order_sensitive=False,
            )
            unordered_probes += len(world.probe_log)
        assert unordered_probes <= ordered_probes

    def test_radius_valid_for_sets(self):
        world = World(seed=13)
        q = Point(0.6, 0.4)
        outcome = evaluate_knn(
            world.index, q, 5, world.probe, order_sensitive=False
        )
        results = set(outcome.results)
        for oid in world.positions:
            region = world.index.rect_of(oid)
            if oid in outcome.probed:
                region = Rect.from_point(outcome.probed[oid])
            if oid in results:
                assert region.max_dist_to_point(q) <= outcome.radius + 1e-9
            else:
                assert region.min_dist_to_point(q) >= outcome.radius - 1e-9


class TestWithBruteForceIndex:
    """The evaluation is index-agnostic; run against the reference index."""

    def test_knn(self):
        world = World(seed=14, index_cls=BruteForceIndex)
        q = Point(0.3, 0.3)
        outcome = evaluate_knn(world.index, q, 4, world.probe)
        assert outcome.results == world.true_knn(q, 4)

    def test_range(self):
        world = World(seed=15, index_cls=BruteForceIndex)
        rect = Rect(0.2, 0.2, 0.8, 0.8)
        outcome = evaluate_range(world.index, rect, world.probe)
        assert set(outcome.results) == world.true_range(rect)

    @settings(max_examples=120)
    @given(rect_columns(), rects(near_unit))
    def test_intersecting_and_contained_agree(self, columns, rect):
        # The index yields exactly the intersecting regions; evaluation
        # takes the (closed) contained ones outright and probes the rest.
        stored = [Rect(*row) for row in zip(*columns)]
        index = BruteForceIndex()
        for oid, region in enumerate(stored):
            index.insert(oid, region)
        assert list(index.search_entries(rect)) == [
            (oid, region) for oid, region in enumerate(stored)
            if region.intersects(rect)
        ]
        outcome = evaluate_range(index, rect, lambda oid: stored[oid].center)
        assert set(outcome.probed) == {
            oid for oid, region in enumerate(stored)
            if region.intersects(rect) and not rect.contains_rect(region)
        }
        assert set(outcome.results) - set(outcome.probed) == {
            oid for oid, region in enumerate(stored)
            if rect.contains_rect(region)
        }

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=8, max_value=12))
    def test_mask_leq_agrees(self, seed, k):
        # Unordered kNN holds up to k candidates at once; its held-set
        # partition must still return the brute-force k nearest.
        rng = random.Random(seed)
        q = Point(rng.random(), rng.random())
        positions = {}
        index = BruteForceIndex()
        for oid in range(40):
            p = Point(rng.random(), rng.random())
            positions[oid] = p
            rx, ry = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)
            index.insert(oid, Rect(
                p.x - rng.uniform(0.0, rx), p.y - rng.uniform(0.0, ry),
                p.x + rng.uniform(0.0, rx), p.y + rng.uniform(0.0, ry),
            ))
        outcome = evaluate_knn(
            index, q, k, positions.__getitem__, order_sensitive=False
        )
        got = sorted(q.distance_to(positions[oid]) for oid in outcome.results)
        want = sorted(q.distance_to(p) for p in positions.values())[:k]
        assert got == want


class TestReachabilityConstrain:
    def test_constrain_reduces_probes(self):
        """A tight reachability box resolves ambiguity without probing."""
        index = cell_index()
        positions = {}
        rng = random.Random(16)
        for oid in range(80):
            p = Point(rng.random(), rng.random())
            positions[oid] = p
            index.insert(
                oid,
                Rect(
                    max(p.x - 0.1, 0), max(p.y - 0.1, 0),
                    min(p.x + 0.1, 1), min(p.y + 0.1, 1),
                ),
            )
        q = Point(0.5, 0.5)

        def run(constrain):
            probes = []
            outcome = evaluate_knn(
                index, q, 4,
                lambda oid: probes.append(oid) or positions[oid],
                constrain=constrain,
            )
            return outcome, probes

        plain_outcome, plain_probes = run(None)

        def tight(oid, region):
            p = positions[oid]
            box = Rect(p.x - 1e-4, p.y - 1e-4, p.x + 1e-4, p.y + 1e-4)
            clipped = region.intersection(box)
            return clipped if clipped is not None else region

        tight_outcome, tight_probes = run(tight)
        assert tight_outcome.results == plain_outcome.results
        assert len(tight_probes) <= len(plain_probes)
        # The decisive tightenings are reported for safe-region shrinking.
        assert tight_outcome.shrunk or len(tight_probes) == len(plain_probes)

    def test_range_constrain_decides_membership(self):
        index = cell_index()
        p = Point(0.5, 0.5)
        index.insert("x", Rect(0.3, 0.3, 0.9, 0.9))
        rect = Rect(0.4, 0.4, 0.6, 0.6)

        def constrain(oid, region):
            return Rect(0.45, 0.45, 0.55, 0.55)  # surely inside

        outcome = evaluate_range(
            index, rect, lambda oid: p, constrain=constrain
        )
        assert outcome.results == ["x"]
        assert not outcome.probed
        assert outcome.shrunk == {"x": Rect(0.45, 0.45, 0.55, 0.55)}

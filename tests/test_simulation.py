"""Tests for the simulation layer: scenarios, truth, metrics, engines."""

import math
import random
import tracemalloc

import pytest

from repro.baselines import PRDSimulation, optimal_report
from repro.core.queries import KNNQuery, RangeQuery
from repro.geometry import Point, Rect
from repro.mobility import RandomWaypointModel
from repro.simulation import GroundTruth, Scenario, SRBSimulation
from repro.simulation.metrics import (
    C_PROBE,
    C_PUSH,
    C_UPDATE,
    AccuracyAccumulator,
    CommunicationCosts,
)
from repro.simulation.truth import opt_update_count

TINY = Scenario(
    num_objects=120,
    num_queries=8,
    mean_speed=0.02,
    mean_period=0.1,
    q_len=0.08,
    k_max=3,
    grid_m=6,
    duration=1.5,
    sample_interval=0.1,
    seed=5,
)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(num_objects=0)
        with pytest.raises(ValueError):
            Scenario(duration=0)
        with pytest.raises(ValueError):
            Scenario(sample_interval=0)
        with pytest.raises(ValueError):
            Scenario(delay=-0.1)
        with pytest.raises(ValueError):
            Scenario(client_poll_interval=0)
        with pytest.raises(ValueError):
            Scenario(shards=-1)

    def test_sample_times(self):
        scenario = Scenario(duration=1.0, sample_interval=0.25)
        assert scenario.sample_times() == [0.25, 0.5, 0.75, 1.0]

    def test_opt_sample_times_finer(self):
        scenario = Scenario(duration=1.0, sample_interval=0.25)
        assert len(scenario.opt_sample_times()) == 20

    def test_with_overrides(self):
        scenario = TINY.with_overrides(delay=0.5)
        assert scenario.delay == 0.5
        assert scenario.num_objects == TINY.num_objects

    def test_max_speed(self):
        assert Scenario(mean_speed=0.01).max_speed == 0.02


class Parked:
    """A trajectory stub that stays at one point."""

    def __init__(self, p):
        self.p = p

    def position_at(self, t):
        return self.p


def _brute_force(positions, queries):
    """Scalar reference answers: closed rects, kNN by ``(d2, registration)``."""
    oids = list(positions)
    out = {}
    for query in queries:
        if isinstance(query, RangeQuery):
            out[query.query_id] = frozenset(
                o for o in oids if query.rect.contains_point(positions[o])
            )
            continue
        c = query.center

        def key(row):
            p = positions[oids[row]]
            dx, dy = p.x - c.x, p.y - c.y
            return (dx * dx + dy * dy, row)

        found = tuple(oids[r] for r in sorted(range(len(oids)), key=key))
        found = found[: query.k]
        out[query.query_id] = found if query.order_sensitive else frozenset(found)
    return out


class TestGroundTruth:
    def build(self):
        model = RandomWaypointModel(0.02, 0.2, seed=1)
        trajectories = {oid: model.create(oid) for oid in range(50)}
        range_query = RangeQuery(Rect(0.3, 0.3, 0.7, 0.7), query_id="r")
        knn = KNNQuery(Point(0.5, 0.5), 3, query_id="k")
        knn_set = KNNQuery(Point(0.2, 0.8), 3, order_sensitive=False, query_id="ks")
        return GroundTruth(trajectories, [range_query, knn, knn_set]), trajectories

    def test_matches_brute_force(self):
        truth, trajectories = self.build()
        for t in (0.0, 0.7, 2.0):
            snapshot = truth.evaluate_at(t)
            positions = {o: tr.position_at(t) for o, tr in trajectories.items()}
            expected_range = frozenset(
                o for o, p in positions.items()
                if Rect(0.3, 0.3, 0.7, 0.7).contains_point(p)
            )
            assert snapshot["r"] == expected_range
            center = Point(0.5, 0.5)
            expected_knn = tuple(sorted(
                positions, key=lambda o: center.distance_to(positions[o])
            )[:3])
            assert snapshot["k"] == expected_knn
            assert isinstance(snapshot["ks"], frozenset)
            assert len(snapshot["ks"]) == 3

        # A parked world with the inputs the answers hinge on.  "east"
        # and "west" mirror each other about the kNN centre, so their
        # distances tie exactly and registration order ranks "east"
        # first; the "edge" objects sit on the range rect's closed
        # boundary and "out" one ulp beyond it.
        rect = Rect(0.25, 0.25, 0.75, 0.75)
        positions = {
            "east": Point(0.625, 0.5),
            "west": Point(0.375, 0.5),
            "corner": Point(0.25, 0.25),
            "edge": Point(0.75, 0.5),
            "top": Point(0.5, 0.75),
            "out": Point(math.nextafter(0.75, 1.0), 0.5),
            "far": Point(0.0, 1.0),
        }
        queries = [
            RangeQuery(rect, query_id="r"),
            KNNQuery(Point(0.5, 0.5), 1, query_id="k1"),
            KNNQuery(Point(0.5, 0.5), 2, query_id="k2"),
            KNNQuery(Point(0.5, 0.5), 50, query_id="kall"),
            KNNQuery(
                Point(0.5, 0.5), 50, order_sensitive=False, query_id="kset"
            ),
        ]
        parked = GroundTruth(
            {o: Parked(p) for o, p in positions.items()}, queries
        ).evaluate_at(0.0)
        assert parked == _brute_force(positions, queries)
        assert parked["r"] == {"east", "west", "corner", "edge", "top"}
        assert parked["k1"] == ("east",)
        assert parked["k2"] == ("east", "west")
        assert len(parked["kall"]) == len(positions)
        assert parked["kall"][:2] == ("east", "west")
        assert parked["kset"] == frozenset(positions)

    def test_checkpoint_memory_is_per_query(self):
        # One checkpoint holds O(N) temporaries per query, never a
        # W x N matrix (which is 32 MB of float64 alone at this size).
        rng = random.Random(3)
        world = {
            oid: Parked(Point(rng.random(), rng.random()))
            for oid in range(20_000)
        }
        queries = []
        for i in range(100):
            x, y = rng.random() * 0.95, rng.random() * 0.95
            queries.append(
                RangeQuery(Rect(x, y, x + 0.05, y + 0.05), query_id=f"r{i}")
            )
            queries.append(
                KNNQuery(Point(rng.random(), rng.random()), 5, query_id=f"k{i}")
            )
        truth = GroundTruth(world, queries)
        tracemalloc.start()
        try:
            truth.evaluate_at(0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_memoised(self):
        truth, _ = self.build()
        assert truth.evaluate_at(0.5) is truth.evaluate_at(0.5)


class TestOptCounting:
    def setup_method(self):
        self.range_query = RangeQuery(Rect(0, 0, 1, 1), query_id="r")
        self.knn = KNNQuery(Point(0, 0), 3, query_id="k")
        self.queries = [self.range_query, self.knn]

    def test_first_checkpoint_free(self):
        assert opt_update_count(None, {"r": frozenset(), "k": ()}, self.queries) == 0

    def test_range_membership_changes(self):
        before = {"r": frozenset({1, 2}), "k": ()}
        after = {"r": frozenset({2, 3}), "k": ()}
        assert opt_update_count(before, after, self.queries) == 2

    def test_knn_swap_counts_inversion(self):
        before = {"r": frozenset(), "k": (1, 2, 3)}
        after = {"r": frozenset(), "k": (2, 1, 3)}
        assert opt_update_count(before, after, self.queries) == 1

    def test_knn_full_reversal(self):
        before = {"r": frozenset(), "k": (1, 2, 3)}
        after = {"r": frozenset(), "k": (3, 2, 1)}
        assert opt_update_count(before, after, self.queries) == 3

    def test_knn_membership_plus_order(self):
        before = {"r": frozenset(), "k": (1, 2, 3)}
        after = {"r": frozenset(), "k": (2, 1, 4)}
        # 3 leaves (+1), 4 enters (+1), survivors (1, 2) swapped (+1).
        assert opt_update_count(before, after, self.queries) == 3

    def test_no_change(self):
        snap = {"r": frozenset({1}), "k": (1, 2, 3)}
        assert opt_update_count(snap, dict(snap), self.queries) == 0


class TestMetrics:
    def test_cost_weights(self):
        costs = CommunicationCosts(updates=4, probes=2, pushes=2)
        assert costs.total == 4 * C_UPDATE + 2 * C_PROBE + 2 * C_PUSH
        assert costs.per_client_per_time(2, 2.0) == costs.total / 4.0

    def test_accuracy_accumulator(self):
        acc = AccuracyAccumulator()
        assert acc.value == 1.0
        acc.record(True)
        acc.record(False)
        assert acc.value == 0.5


class TestSRBSimulation:
    def test_runs_and_reports(self):
        report = SRBSimulation(TINY).run()
        assert report.scheme == "SRB"
        assert report.num_objects == TINY.num_objects
        assert 0.0 <= report.accuracy <= 1.0
        assert report.costs.updates >= 0
        assert report.total_distance > 0

    def test_high_accuracy_at_zero_delay(self):
        report = SRBSimulation(TINY).run()
        assert report.accuracy > 0.95

    def test_accuracy_degrades_with_delay(self):
        crisp = SRBSimulation(TINY).run()
        delayed = SRBSimulation(TINY.with_overrides(delay=0.3)).run()
        assert delayed.accuracy <= crisp.accuracy

    def test_deterministic(self):
        a = SRBSimulation(TINY).run()
        b = SRBSimulation(TINY).run()
        assert a.costs.updates == b.costs.updates
        assert a.accuracy == b.accuracy

    def test_total_distance_is_the_per_trajectory_sum(self):
        """The report's distance comes from the leg columns in one pass;
        it is the sum of every trajectory's own walk, bit for bit."""
        report = SRBSimulation(TINY).run()
        model = RandomWaypointModel(
            TINY.mean_speed, TINY.mean_period, TINY.space, seed=TINY.seed
        )
        walked = sum(
            model.create(oid).distance_travelled(0.0, TINY.duration)
            for oid in range(TINY.num_objects)
        )
        assert report.total_distance.hex() == walked.hex()

    def test_shared_truth_reuse(self):
        first = SRBSimulation(TINY)
        report_a = first.run()
        second = SRBSimulation(TINY, truth=first.truth)
        report_b = second.run()
        assert report_a.costs.updates == report_b.costs.updates


class TestPRDSimulation:
    def test_validation(self):
        with pytest.raises(ValueError):
            PRDSimulation(TINY, t_prd=0.0)

    def test_runs_and_reports(self):
        report = PRDSimulation(TINY, t_prd=0.3).run()
        assert report.scheme == "PRD(0.3)"
        periods = math.floor(TINY.duration / 0.3) + 1
        assert report.costs.updates == TINY.num_objects * periods
        assert report.costs.probes == 0

    def test_faster_period_more_accurate(self):
        slow = PRDSimulation(TINY, t_prd=0.75).run()
        fast = PRDSimulation(TINY, t_prd=0.15).run()
        assert fast.accuracy >= slow.accuracy
        assert fast.costs.updates > slow.costs.updates


class TestOptimalReport:
    def test_perfect_accuracy_and_costs(self):
        report = optimal_report(TINY)
        assert report.accuracy == 1.0
        assert report.scheme == "OPT"
        assert report.costs.probes == 0
        assert report.costs.updates >= 0

    def test_cheaper_than_srb(self):
        srb = SRBSimulation(TINY).run()
        opt = optimal_report(TINY, truth=SRBSimulation(TINY).truth)
        assert opt.comm_cost <= srb.comm_cost


class TestSchemeOrdering:
    def test_headline_shape(self):
        """SRB beats PRD on accuracy at comparable or lower cost."""
        srb = SRBSimulation(TINY).run()
        prd = PRDSimulation(TINY, t_prd=1.0, truth=None).run()
        assert srb.accuracy > prd.accuracy

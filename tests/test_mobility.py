"""Tests for the random waypoint model and client logic (Section 7.1)."""

import gc
import math
import random
import tracemalloc
import types
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.figures import BENCH_BASE
from repro.geometry import Point, Rect
from repro.mobility import Clients, Fleet, MobileClient, RandomWaypointModel, Segment, Trajectory
from repro.mobility.waypoint import (
    BLOCK,
    LegBlock,
    exit_times_from_rects,
    positions_at,
    total_distance_travelled,
)
from repro.simulation.engine import SRBSimulation
from repro.simulation.truth import GroundTruth

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def make_trajectory(oid=0, speed=0.05, period=0.3, seed=0):
    return RandomWaypointModel(speed, period, UNIT, seed=seed).create(oid)


def built_legs(trajectory: Trajectory) -> list[Segment]:
    """The legs ``trajectory`` has built so far, as ``Segment`` values.

    Legs are a run of rows in a float block shared by the trajectories
    built with it, not a list of ``Segment`` objects, so asserts about
    the built legs read that run of rows.  A trajectory is a view of a
    fleet row, whose ``_legs`` / ``_lo`` / ``_hi`` columns hold the block
    and the run's offsets into its flat view (six floats a leg).
    """
    fleet, row = trajectory._fleet, trajectory._row
    rows = fleet._legs[row].rows[fleet._lo[row] // 6:fleet._hi[row] // 6]
    return [
        Segment(start, end, Point(x, y), vx, vy)
        for start, end, x, y, vx, vy in rows.tolist()
    ]


def leg_hex(segment: Segment) -> tuple[str, ...]:
    return tuple(
        value.hex() for value in (
            segment.start_time, segment.end_time, segment.start.x,
            segment.start.y, segment.velocity_x, segment.velocity_y,
        )
    )


def _segment_exit(position: Point, segment: Segment, rect: Rect) -> float:
    t_exit = math.inf
    vx, vy = segment.velocity_x, segment.velocity_y
    if vx > 0.0:
        t_exit = min(t_exit, (rect.max_x - position.x) / vx)
    elif vx < 0.0:
        t_exit = min(t_exit, (rect.min_x - position.x) / vx)
    if vy > 0.0:
        t_exit = min(t_exit, (rect.max_y - position.y) / vy)
    elif vy < 0.0:
        t_exit = min(t_exit, (rect.min_y - position.y) / vy)
    return max(t_exit, 0.0)


class ScalarReference:
    """The scalar trajectory the leg columns replaced, as the reference.

    One ``Segment`` per leg, drawn one at a time from a per-object
    generator that stays alive, by the arithmetic the columnar builder
    must reproduce bit for bit; reads walk the ``Segment`` list with the
    same lookup cursor.
    """

    def __init__(self, model: RandomWaypointModel, oid: int) -> None:
        self._speed = model.mean_speed
        self._period = model.mean_period
        self._space = space = model.space
        self._rng = np.random.default_rng((model._seed, oid))
        ux, uy = self._rng.random(2).tolist()
        self._cursor = Point(
            space.min_x + (space.max_x - space.min_x) * ux,
            space.min_y + (space.max_y - space.min_y) * uy,
        )
        self._cursor_time = 0.0
        self.segments: list[Segment] = []
        self._search_from = 0

    def extend_to(self, t: float) -> None:
        while self._cursor_time <= t:
            self.segments.append(self._next_segment())

    def _next_segment(self) -> Segment:
        origin = self._cursor
        space = self._space
        ux, uy, us, ut = self._rng.random(4).tolist()
        destination = Point(
            space.min_x + (space.max_x - space.min_x) * ux,
            space.min_y + (space.max_y - space.min_y) * uy,
        )
        speed = 2.0 * self._speed * us
        period = max(2.0 * self._period * ut, 1e-9)
        distance = math.hypot(origin.x - destination.x, origin.y - destination.y)
        if speed <= 0.0 or distance == 0.0:
            duration = period
            vx = vy = 0.0
        else:
            duration = min(distance / speed, period)
            vx = (destination.x - origin.x) / distance * speed
            vy = (destination.y - origin.y) / distance * speed
        start_time = self._cursor_time
        end_time = start_time + duration
        segment = Segment(start_time, end_time, origin, vx, vy)
        self._cursor = segment.position_at(end_time)
        self._cursor_time = end_time
        return segment

    def segment_at(self, t: float) -> Segment:
        self.extend_to(t)
        i = self._search_from
        segments = self.segments
        if segments[i].start_time > t:
            i = 0
        while segments[i].end_time < t:
            i += 1
        self._search_from = i
        return segments[i]

    def position_at(self, t: float) -> Point:
        return self.segment_at(t).position_at(t)

    def distance_travelled(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        self.extend_to(t1)
        total = 0.0
        for segment in self.segments:
            if segment.end_time <= t0:
                continue
            if segment.start_time >= t1:
                break
            overlap = min(segment.end_time, t1) - max(segment.start_time, t0)
            total += segment.speed * overlap
        return total

    def exit_time_from_rect(self, rect: Rect, t: float, horizon: float) -> float:
        current = t
        while current <= horizon:
            segment = self.segment_at(current)
            position = segment.position_at(current)
            if not rect.contains_point(position, eps=1e-12):
                return current
            if segment.velocity_x != 0.0 or segment.velocity_y != 0.0:
                exit_at = current + _segment_exit(position, segment, rect)
                if exit_at <= segment.end_time:
                    return exit_at if exit_at <= horizon else math.inf
            current = math.nextafter(max(segment.end_time, current), math.inf)
        return math.inf


class TestTrajectory:
    def test_deterministic_per_seed_and_oid(self):
        a = make_trajectory(oid=3, seed=9)
        b = make_trajectory(oid=3, seed=9)
        for t in (0.0, 0.5, 1.7, 10.0):
            assert a.position_at(t) == b.position_at(t)

    def test_different_objects_differ(self):
        a = make_trajectory(oid=1)
        b = make_trajectory(oid=2)
        assert a.position_at(0.0) != b.position_at(0.0)

    def test_stays_in_space(self):
        trajectory = make_trajectory(seed=4)
        for i in range(200):
            p = trajectory.position_at(i * 0.1)
            assert UNIT.contains_point(p, eps=1e-9)

    def test_speed_bounded(self):
        trajectory = make_trajectory(speed=0.05, seed=5)
        dt = 1e-4
        for i in range(100):
            t = i * 0.21
            a = trajectory.position_at(t)
            b = trajectory.position_at(t + dt)
            assert a.distance_to(b) <= trajectory.max_speed * dt + 1e-12

    def test_continuity(self):
        trajectory = make_trajectory(seed=6)
        prev = trajectory.position_at(0.0)
        for i in range(1, 500):
            cur = trajectory.position_at(i * 0.01)
            assert prev.distance_to(cur) <= trajectory.max_speed * 0.011
            prev = cur

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make_trajectory().position_at(-0.1)

    def test_parameter_validation(self):
        model = RandomWaypointModel(0.05, 0.3)
        with pytest.raises(ValueError):
            RandomWaypointModel(0.0, 0.3).create(0)
        with pytest.raises(ValueError):
            RandomWaypointModel(0.05, 0.0).create(0)

    def test_distance_travelled_additive(self):
        trajectory = make_trajectory(seed=7)
        total = trajectory.distance_travelled(0.0, 2.0)
        split = trajectory.distance_travelled(0.0, 0.8) + \
            trajectory.distance_travelled(0.8, 2.0)
        assert total == pytest.approx(split)
        assert trajectory.distance_travelled(1.0, 1.0) == 0.0
        assert total <= trajectory.max_speed * 2.0 + 1e-9

    def test_legs_match_the_scalar_uniform_draws(self):
        """The batched four-variate draw is the scalar draws, bit for bit.

        Reference: the destination, speed and period of every leg drawn
        with four ``Generator.uniform`` calls from the same per-object
        stream — the formula workload inputs were generated with before
        the draw was batched.
        """
        import numpy as np

        space = Rect(0.1, -0.5, 0.9, 2.0)  # offsets exercise ``lo +``
        speed, period = 0.013, 0.37
        legs = 0
        for seed in range(40):
            trajectory = RandomWaypointModel(
                speed, period, space, seed=seed
            ).create(7)
            trajectory.position_at(3.0)
            rng = np.random.default_rng((seed, 7))
            cursor = (
                rng.uniform(space.min_x, space.max_x),
                rng.uniform(space.min_y, space.max_y),
            )
            for segment in built_legs(trajectory):
                assert (segment.start.x, segment.start.y) == cursor
                dest_x = rng.uniform(space.min_x, space.max_x)
                dest_y = rng.uniform(space.min_y, space.max_y)
                v = rng.uniform(0.0, 2.0 * speed)
                limit = max(rng.uniform(0.0, 2.0 * period), 1e-9)
                distance = math.hypot(cursor[0] - dest_x, cursor[1] - dest_y)
                duration = min(distance / v, limit)
                assert segment.end_time - segment.start_time == pytest.approx(
                    duration, abs=1e-12
                )
                assert segment.velocity_x == (dest_x - cursor[0]) / distance * v
                assert segment.velocity_y == (dest_y - cursor[1]) / distance * v
                end = segment.position_at(segment.end_time)
                cursor = (end.x, end.y)
                legs += 1
        assert legs >= 300

    def test_start_point_matches_the_scalar_uniform_draws(self):
        """The batched two-variate start draw is two ``uniform`` calls,
        bit for bit — same point, same stream position afterwards."""
        space = Rect(0.1, -0.5, 0.9, 2.0)
        pairs = 0
        for seed in range(25):
            model = RandomWaypointModel(0.013, 0.37, space, seed=seed)
            for oid in range(40):
                trajectory = model.create(oid)
                rng = np.random.default_rng((seed, oid))
                start = (
                    rng.uniform(space.min_x, space.max_x),
                    rng.uniform(space.min_y, space.max_y),
                )
                first = trajectory.segment_at(0.0)
                assert (first.start.x, first.start.y) == start
                # The first leg's destination is the next draw of both.
                dest_x = rng.uniform(space.min_x, space.max_x)
                dest_y = rng.uniform(space.min_y, space.max_y)
                v = rng.uniform(0.0, 2.0 * 0.013)
                distance = math.hypot(start[0] - dest_x, start[1] - dest_y)
                assert first.velocity_x == (dest_x - start[0]) / distance * v
                assert first.velocity_y == (dest_y - start[1]) / distance * v
                pairs += 1
        assert pairs == 1000

    def test_random_access_after_forward_scan(self):
        trajectory = make_trajectory(seed=8)
        late = trajectory.position_at(5.0)
        early = trajectory.position_at(0.3)  # rewind must work
        assert trajectory.position_at(5.0) == late
        assert trajectory.position_at(0.3) == early


class TestExitTimes:
    def test_exit_time_matches_position(self):
        trajectory = make_trajectory(seed=10)
        p0 = trajectory.position_at(0.5)
        box = Rect(p0.x - 0.03, p0.y - 0.03, p0.x + 0.03, p0.y + 0.03)
        exit_at = trajectory.exit_time_from_rect(box, 0.5, horizon=100.0)
        assert exit_at > 0.5
        on_exit = trajectory.position_at(exit_at)
        assert box.contains_point(on_exit, eps=1e-9)
        # Just before the exit the object is inside; just after, outside.
        after = trajectory.position_at(min(exit_at + 1e-6, 100.0))
        margin = min(
            on_exit.x - box.min_x, box.max_x - on_exit.x,
            on_exit.y - box.min_y, box.max_y - on_exit.y,
        )
        assert margin < 1e-6 or not box.contains_point(after)

    def test_exit_time_outside_is_now(self):
        trajectory = make_trajectory(seed=11)
        box = Rect(2.0, 2.0, 3.0, 3.0)
        assert trajectory.exit_time_from_rect(box, 0.2, 10.0) == 0.2

    def test_never_exits_whole_space(self):
        trajectory = make_trajectory(seed=12)
        assert trajectory.exit_time_from_rect(UNIT, 0.0, 5.0) == math.inf

    def test_beyond_horizon_is_inf(self):
        trajectory = make_trajectory(seed=13, speed=1e-6)
        p0 = trajectory.position_at(0.0)
        box = Rect(p0.x - 0.4, p0.y - 0.4, p0.x + 0.4, p0.y + 0.4)
        assert trajectory.exit_time_from_rect(box, 0.0, 1.0) == math.inf

    def test_infinite_horizon_is_rejected(self):
        """A whole-space rect is never left: a walk (or a build) to an
        infinite horizon would draw legs forever."""
        model = RandomWaypointModel(0.05, 0.3, UNIT)
        trajectory = model.create(0)
        for horizon in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                trajectory.exit_time_from_rect(UNIT, 0.0, horizon)
            with pytest.raises(ValueError, match="horizon"):
                exit_times_from_rects([trajectory], [UNIT], 0.0, horizon)
            with pytest.raises(ValueError, match="horizon"):
                model.build([0], horizon)
        with pytest.raises(ValueError, match="horizon"):
            trajectory.position_at(math.inf)
        with pytest.raises(ValueError, match="horizon"):
            model.build([0], -1.0)
        assert trajectory.exit_time_from_rect(UNIT, 0.0, 5.0) == math.inf

    @given(st.integers(min_value=0, max_value=50), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_property_no_crossing_before_exit(self, oid, start):
        trajectory = RandomWaypointModel(0.08, 0.2, UNIT, seed=99).create(oid)
        p0 = trajectory.position_at(start)
        box = Rect(
            max(p0.x - 0.05, 0), max(p0.y - 0.05, 0),
            min(p0.x + 0.05, 1), min(p0.y + 0.05, 1),
        )
        exit_at = trajectory.exit_time_from_rect(box, start, start + 5.0)
        end = min(exit_at, start + 5.0)
        steps = 50
        for i in range(steps):
            t = start + (end - start) * (i / steps) * 0.999
            assert box.contains_point(trajectory.position_at(t), eps=1e-7)


def scripted(first: Segment, seed: int) -> Trajectory:
    """A trajectory whose first leg is ``first``; the model draws the rest.

    A trajectory is a run of rows in a leg block and keeps no generator,
    so the scripted leg is a one-row block laid out as a one-row fleet,
    and the legs after it come
    from object 0's ``(seed, 0)`` stream advanced past one leg's
    variates, as for any trajectory extended past its last leg.
    """
    leg = np.array([[
        first.start_time, first.end_time, first.start.x, first.start.y,
        first.velocity_x, first.velocity_y,
    ]])
    model = RandomWaypointModel(0.05, 0.3, UNIT, seed=seed)
    fleet = Fleet(model, [0])
    fleet._append(LegBlock(leg), np.array([0]), np.array([1]))
    return fleet[0]


class TestColumnarExitTimes:
    """``exit_times_from_rects`` is ``MobileClient.next_exit_time``, bit
    for bit — the engine schedules every first exit from it."""

    @staticmethod
    def check(make, rects, t, horizon):
        """``make()``: fresh trajectories, one per rect; returns the times."""
        clients = Clients(dict(enumerate(make())))
        for oid, rect in enumerate(rects):
            clients[oid].adopt_safe_region(rect)
        want = [
            clients[oid].next_exit_time(t, horizon)
            for oid in range(len(rects))
        ]
        got = exit_times_from_rects(make(), rects, t, horizon)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        return got

    def test_sampled_triples(self):
        rng = random.Random(5)
        triples = stays = outside = leaves = 0
        for seed in range(40):
            model = RandomWaypointModel(0.05, 0.3, UNIT, seed=seed)
            # Four (t, horizon) shapes: start-up, a short horizon most
            # first legs outlast, a late start, an already-past horizon.
            for t, horizon in ((0.0, 2.0), (0.0, 0.05), (0.7, 1.5), (0.4, 0.3)):
                # Built to the horizon, as the engine builds; odd seeds
                # build one leg only, so the pass extends them itself.
                built = 0.0 if seed % 2 else max(horizon, t)

                def make(model=model, built=built):
                    return list(model.build(range(64), built).values())

                rects = []
                for oid, trajectory in enumerate(make()):
                    p = trajectory.position_at(t)
                    # From a sliver left within the leg to a box that
                    # outlasts several legs; one in eight excludes p.
                    half = 10.0 ** rng.uniform(-5.0, -0.5)
                    shift = 2.5 * half if oid % 8 == 0 else 0.0
                    rects.append(Rect(
                        p.x - half * rng.random() + shift,
                        p.y - half * rng.random(),
                        p.x + half * rng.random() + shift,
                        p.y + half * rng.random(),
                    ))
                got = self.check(make, rects, t, horizon)
                triples += len(rects)
                if t <= horizon:
                    stays += sum(math.isinf(x) for x in got)
                    outside += got.count(t)
                    leaves += sum(t < x < math.inf for x in got)
        assert triples >= 10_000
        # Every kind of answer is well represented.
        assert min(stays, outside, leaves) >= 500

    def test_leg_decides_or_the_walk_goes_on(self):
        start = Point(0.5, 0.5)
        moving = Segment(0.0, 0.5, start, 0.25, 0.0)
        parked = Segment(0.0, 0.5, start, 0.0, 0.0)
        diagonal = Segment(0.0, 0.5, start, -0.125, 0.25)
        box = Rect(0.25, 0.25, 0.625, 0.75)
        cases = [
            # Exit exactly at the leg's end: (0.625 - 0.5) / 0.25 == 0.5.
            (moving, box),
            # Leg ends before the exit; the walk continues past it.
            (moving, Rect(0.0, 0.0, 1.0, 1.0)),
            (moving, Rect(0.25, 0.25, 0.75, 0.75)),
            # Zero velocity: only a later leg can leave.
            (parked, box),
            (parked, Rect(0.5, 0.5, 0.5, 0.5)),
            # One zero component, and a corner exit.
            (diagonal, box),
            (diagonal, Rect(0.4375, 0.25, 0.75, 0.625)),
            # Start outside: by more than the 1e-12 tolerance, within
            # it, and on the edge itself.
            (moving, Rect(0.5 + 2e-12, 0.25, 0.75, 0.75)),
            (moving, Rect(0.5 + 5e-13, 0.25, 0.75, 0.75)),
            (moving, Rect(0.5, 0.25, 0.75, 0.75)),
            (diagonal, Rect(0.25, 0.25, 0.5 - 2e-12, 0.75)),
            (diagonal, Rect(0.25, 0.25, 0.5 - 5e-13, 0.75)),
            (parked, Rect(0.6, 0.6, 0.7, 0.7)),
        ]
        rects = [rect for _, rect in cases]
        for seed in range(8):
            def scripts(seed=seed):
                return [scripted(leg, seed) for leg, _ in cases]

            # Horizons: past every exit, between leg end and exit, at
            # the leg end exactly, inside the leg, and zero.
            for horizon in (10.0, 0.6, 0.5, 0.3, 0.0):
                got = self.check(scripts, rects, 0.0, horizon)
                if horizon >= 0.5:
                    assert got[0] == 0.5
                else:
                    assert got[0] == math.inf  # exit past the horizon
                assert got[7] == 0.0 and got[8] > 0.0
            # Mid-leg, and from the very end of the scripted leg.
            self.check(scripts, rects, 0.25, 10.0)
            self.check(scripts, rects, 0.5, 10.0)
        assert exit_times_from_rects([], [], 0.0, 1.0) == []


    def test_the_walk_skips_an_empty_leg(self):
        """A hop past a leg's end lands on the first leg that ends at or
        after it, as ``_leg`` picks: a zero-length leg at the boundary is
        skipped, by the scalar walk and by the columnar one alike (its
        start here lies outside the box, so reading it would exit)."""
        legs = np.array([
            [0.0, 0.5, 0.5, 0.5, 0.25, 0.0],
            [0.5, 0.5, 0.9, 0.5, 0.0, 0.0],
            [0.5, 2.0, 0.625, 0.5, 0.125, 0.0],
        ])
        box = Rect(0.25, 0.25, 0.75, 0.75)

        def make():
            fleet = Fleet(RandomWaypointModel(0.05, 0.3, UNIT), [0])
            fleet._append(LegBlock(legs.copy()), np.array([0]), np.array([3]))
            return fleet

        scalar, columnar = make(), make()
        got = scalar[0].exit_time_from_rect(box, 0.0, 2.0)
        assert 1.49 < got < 1.51
        assert exit_times_from_rects(
            columnar.values(), [box], 0.0, 2.0
        ) == [got]
        assert scalar._at == columnar._at == array("q", [12])


class TestColumnarLegs:
    """The leg columns are :class:`ScalarReference`'s legs, and every
    read off them is the reference's read, bit for bit."""

    #: Offset spaces exercise ``lo +`` in the scaled draws; the fast
    #: model in the small space arrives before most periods end.
    MODELS = (
        (0.05, 0.3, UNIT),
        (0.013, 0.37, Rect(0.1, -0.5, 0.9, 2.0)),
        (3.0, 0.2, Rect(-3.0, 2.0, -1.5, 2.25)),
    )

    def test_legs_pin_the_scalar_reference(self):
        pairs = legs = 0
        for seed in range(12):
            for speed, period, space in self.MODELS:
                model = RandomWaypointModel(speed, period, space, seed=seed)
                at_zero = model.build(range(30), 0.0)
                at_one = model.build(range(30), 1.0)
                for oid in range(30):
                    reference = ScalarReference(model, oid)
                    reference.extend_to(3.0)
                    third = reference.segments[2]
                    # Zero, mid-leg, exactly on a leg's end, and the
                    # block horizon 1.0.
                    for horizon, trajectory in (
                        (0.0, at_zero[oid]),
                        (0.5 * (third.start_time + third.end_time), None),
                        (third.end_time, None),
                        (1.0, at_one[oid]),
                    ):
                        if trajectory is None:
                            trajectory = model.build([oid], horizon)[oid]
                        got = [leg_hex(leg) for leg in built_legs(trajectory)]
                        want = [
                            leg_hex(leg) for leg in reference.segments
                            if leg.start_time <= horizon
                        ]
                        assert got == want, (seed, oid, horizon)
                        legs += len(got)
                    pairs += 1
        assert pairs >= 1000
        assert legs >= 10_000

    def test_extension_continues_one_long_stream(self):
        model = RandomWaypointModel(0.05, 0.3, Rect(0.1, -0.5, 0.9, 2.0), seed=4)
        trajectories = list(model.build(range(40), 0.5).values())
        # One row at a time: a read past the last leg ...
        for trajectory in trajectories[:20]:
            trajectory.position_at(3.0)
        # ... and a block at once: a columnar walk to a later horizon.
        whole = Rect(-1.0, -1.0, 2.0, 3.0)
        assert exit_times_from_rects(
            trajectories[20:], [whole] * 20, 0.0, 4.0
        ) == [math.inf] * 20
        for oid, trajectory in enumerate(trajectories):
            got = [leg_hex(leg) for leg in built_legs(trajectory)]
            reference = ScalarReference(model, oid)
            reference.extend_to(3.0 if oid < 20 else 4.0)
            assert len(got) >= len(reference.segments)
            reference.extend_to(built_legs(trajectory)[-1].start_time)
            assert got == [leg_hex(leg) for leg in reference.segments]

    def test_reads_are_hex_equal_to_the_reference(self):
        rng = random.Random(11)
        reads = 0
        for seed in range(6):
            model = RandomWaypointModel(0.05, 0.3, UNIT, seed=seed)
            # Half built to the horizon, half one leg at a time: the
            # columnar pass stacks both blocks.
            trajectories = list(model.build(range(25), 2.0).values()) + [
                model.create(oid) for oid in range(25, 50)
            ]
            references = [ScalarReference(model, oid) for oid in range(50)]
            for t, horizon in ((0.0, 2.0), (0.6, 1.9), (1.1, 3.5)):
                rects = []
                for reference in references:
                    p = reference.position_at(t)
                    half = 10.0 ** rng.uniform(-4.0, -0.5)
                    rects.append(
                        Rect(p.x - half, p.y - half, p.x + half, p.y + half)
                    )
                for trajectory in trajectories:
                    trajectory.position_at(t)
                got = exit_times_from_rects(trajectories, rects, t, horizon)
                want = [
                    reference.exit_time_from_rect(rect, t, horizon)
                    for reference, rect in zip(references, rects)
                ]
                assert [x.hex() for x in got] == [x.hex() for x in want]
                # Each walk leaves its cursor on the last leg it read; a
                # lookup at that leg's start (the previous leg's end, a
                # tie) picks whichever leg the cursor reaches first.
                for trajectory, reference in zip(trajectories, references):
                    tie = reference.segments[reference._search_from].start_time
                    assert leg_hex(trajectory.segment_at(tie)) == leg_hex(
                        reference.segment_at(tie)
                    )
            for trajectory, reference in zip(trajectories, references):
                reference.extend_to(3.0)
                ends = [leg.end_time for leg in reference.segments][:8]
                # Forward, then rewinds; leg ends are lookup ties.
                times = sorted([rng.uniform(0.0, 3.0) for _ in range(12)] + ends)
                times += [rng.uniform(0.0, 3.0) for _ in range(4)] + ends[:3]
                for t in times:
                    p, q = trajectory.position_at(t), reference.position_at(t)
                    assert (p.x.hex(), p.y.hex()) == (q.x.hex(), q.y.hex())
                    half = 10.0 ** rng.uniform(-4.0, -0.5)
                    box = Rect(q.x - half, q.y - half, q.x + half, q.y + half)
                    horizon = t + rng.uniform(0.0, 2.0)
                    assert trajectory.exit_time_from_rect(
                        box, t, horizon
                    ).hex() == reference.exit_time_from_rect(
                        box, t, horizon
                    ).hex()
                    t1 = t + rng.uniform(0.0, 1.0)
                    assert trajectory.distance_travelled(
                        t, t1
                    ).hex() == reference.distance_travelled(t, t1).hex()
                    reads += 1
            assert total_distance_travelled(
                trajectories, 0.2, 2.7
            ).hex() == sum(
                reference.distance_travelled(0.2, 2.7)
                for reference in references
            ).hex()
        assert reads >= 5000
        assert total_distance_travelled(trajectories, 1.0, 1.0) == 0.0
        assert total_distance_travelled([], 0.0, 1.0) == 0


class TestLegMemory:
    """No generator outlives a build, and a leg costs ≤ 64 bytes."""

    def test_built_trajectories_keep_no_generator(self):
        built = RandomWaypointModel(0.01, 0.1, UNIT, seed=3).build(
            range(300), 1.0
        )
        built[7].position_at(4.0)  # an extension re-derives a stream
        seen, stack = set(), list(built.values())
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (
                np.random.Generator, np.random.BitGenerator,
                np.random.SeedSequence,
            )), obj
            stack.extend(gc.get_referents(obj))
        assert len(seen) > 300

    def test_no_generator_is_ever_made(self, monkeypatch):
        """Streams are seeded, drawn and jumped as columns: a build and
        an extension past the horizon run with NumPy's generators gone."""

        def refuse(*args, **kwargs):
            raise AssertionError("a NumPy generator was made")

        for name in ("default_rng", "SeedSequence", "PCG64"):
            monkeypatch.setattr(np.random, name, refuse)
        built = RandomWaypointModel(0.01, 0.1, UNIT, seed=3).build(
            range(300), 1.0
        )
        before = len(built_legs(built[7]))
        built[7].position_at(4.0)
        assert len(built_legs(built[7])) > before
        monkeypatch.undo()
        reference = ScalarReference(built._model, 7)
        reference.extend_to(4.0)
        want = [leg_hex(leg) for leg in reference.segments]
        assert [leg_hex(leg) for leg in built_legs(built[7])][:len(want)] == want

    def test_a_leg_takes_at_most_64_bytes(self):
        """Bytes retained per extra leg: a build to a long horizon less
        the same objects built to one leg each, over the legs between."""
        model = RandomWaypointModel(0.01, 0.1, UNIT, seed=3)

        def retained(horizon):
            gc.collect()
            tracemalloc.start()
            try:
                built = model.build(range(2000), horizon)
                gc.collect()
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            legs = sum(len(built_legs(t)) for t in built.values())
            return size, legs

        short, few = retained(0.0)
        long, many = retained(5.0)
        assert many >= 40 * few
        assert (long - short) / (many - few) <= 64


class TestMoverMemory:
    """Movers are rows of columns, not objects, once a loop is built."""

    def test_construction_keeps_no_per_mover_object(self):
        """After ``SRBSimulation(scenario)`` at N = 2,000 no ``Trajectory``
        or ``MobileClient`` is alive, and the bytes retained per mover
        beyond its legs (tracemalloc, after a warm-up construction) are
        at most half of 312.6 B — the figure when each mover was a
        ``Trajectory`` with its own offset ints and a ``MobileClient``,
        held in three N-long containers.  As rows they are ~103 B."""
        n = 2_000
        scenario = BENCH_BASE.with_overrides(
            num_objects=n, num_queries=20, duration=1.0, seed=1
        )
        SRBSimulation(scenario)  # imports and first-use caches
        gc.collect()
        tracemalloc.start()
        try:
            sim = SRBSimulation(scenario)
            gc.collect()
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not [
            obj for obj in gc.get_objects()
            if isinstance(obj, (Trajectory, MobileClient))
        ]
        blocks = {id(legs): legs for legs in sim.truth.trajectories()._legs}
        legs = sum(block.rows.nbytes for block in blocks.values())
        assert (size - legs) / n <= 312.6 / 2


class TestBlockReads:
    """Whole-fleet reads walk the leg columns a block of rows at a time:
    ``positions_at`` is ``position_at`` row by row, cursors included, and
    the distance pass holds no fleet-long list of floats."""

    @staticmethod
    def cursor_legs(fleet: Fleet) -> list[int]:
        """Each row's cursor as a leg ordinal in its run, whatever block
        the run sits in."""
        return [(at - lo) // 6 for at, lo in zip(fleet._at, fleet._lo)]

    def read_both(self, scalar: Fleet, columnar: Fleet, t: float) -> None:
        """``t`` read off two fleets with equal histories, row by row and
        in columns: hex-equal coordinates, cursors on the same legs."""
        want = [trajectory.position_at(t) for trajectory in scalar.values()]
        xs, ys = positions_at(columnar.values(), t)
        assert [x.hex() for x in xs.tolist()] == [p.x.hex() for p in want]
        assert [y.hex() for y in ys.tolist()] == [p.y.hex() for p in want]
        assert self.cursor_legs(columnar) == self.cursor_legs(scalar)

    def test_positions_are_position_at_row_by_row(self):
        rng = random.Random(3)
        for seed in range(6):
            model = RandomWaypointModel(0.05, 0.3, UNIT, seed=seed)
            scalar, columnar = (model.build(range(300), 2.0) for _ in "ab")
            # Forward, then rewinds past the cursors, then time zero.
            times = sorted(rng.uniform(0.0, 2.0) for _ in range(6))
            for t in times + [rng.uniform(0.0, 1.0) for _ in range(3)] + [0.0]:
                self.read_both(scalar, columnar, t)
                # Within the built legs the layouts match: the very
                # cursor column is equal.
                assert columnar._at == scalar._at
        with pytest.raises(ValueError):
            positions_at(columnar.values(), -1e-9)

    def test_leg_boundaries_after_the_truth_moved_the_cursor(self):
        """At a leg's end both legs are active and the cursor decides.
        The truth reads a ulp past a row's boundary, moving every cursor
        on; the boundary itself then reads from the later leg, and a ulp
        before it rewinds to the earlier one, as ``position_at`` does."""
        model = RandomWaypointModel(0.05, 0.3, UNIT, seed=9)
        scalar, columnar = (model.build(range(200), 2.0) for _ in "ab")
        truth = GroundTruth(columnar, [])
        for oid in range(0, 200, 5):
            legs = built_legs(scalar[oid])
            for leg in legs[:3]:
                boundary = leg.end_time
                past = math.nextafter(boundary, math.inf)
                for trajectory in scalar.values():
                    trajectory.position_at(past)
                truth.positions_at(past)
                assert self.cursor_legs(columnar) == self.cursor_legs(scalar)
                assert self.cursor_legs(columnar)[oid] == legs.index(leg) + 1
                self.read_both(scalar, columnar, boundary)
                self.read_both(
                    scalar, columnar, math.nextafter(boundary, -math.inf)
                )
        assert columnar._at == scalar._at

    def test_a_fleet_over_several_leg_blocks(self):
        """More rows than ``BLOCK`` are two leg blocks from the start; rows
        read past their last leg move on to blocks of their own."""
        model = RandomWaypointModel(0.05, 0.3, UNIT, seed=2)
        n = BLOCK + 300
        scalar, columnar = (model.build(range(n), 1.0) for _ in "ab")
        for fleet in (scalar, columnar):
            assert len({id(legs) for legs in fleet._legs}) == 2
            for oid in range(BLOCK - 40, BLOCK + 40, 3):
                fleet[oid].position_at(1.5)
            assert len({id(legs) for legs in fleet._legs}) > 2
        for t in (0.1, 0.9, 0.05, 0.7):
            self.read_both(scalar, columnar, t)
            assert columnar._at == scalar._at

    def test_a_time_past_the_built_horizon(self):
        """Both reads build on: row by row to a block each, in columns a
        block of rows at once; the legs, and so the answers, agree."""
        model = RandomWaypointModel(0.05, 0.3, UNIT, seed=4)
        scalar, columnar = (model.build(range(120), 0.5) for _ in "ab")
        for t in (0.3, 3.0, 1.0, 4.5):
            self.read_both(scalar, columnar, t)
        for trajectory, reference in zip(
            columnar.values(), (ScalarReference(model, oid) for oid in range(120))
        ):
            reference.extend_to(4.5)
            got = [leg_hex(leg) for leg in built_legs(trajectory)]
            assert got[:len(reference.segments)] == [
                leg_hex(leg) for leg in reference.segments
            ]

    def test_ground_truth_reads_any_mapping(self):
        """A ``Fleet`` is read in columns; any other mapping of objects
        with ``position_at`` one object at a time, to the same floats."""

        class Parked:
            def __init__(self, point):
                self.point = point

            def position_at(self, t):
                return self.point

        model = RandomWaypointModel(0.05, 0.3, UNIT, seed=6)
        fleet = model.build(range(150), 1.0)
        views = dict(model.build(range(150), 1.0))
        parked = {oid: Parked(Point(oid / 150, 0.5)) for oid in range(150)}
        for t in (0.4, 0.9):
            xs, ys = GroundTruth(fleet, []).positions_at(t)
            vx, vy = GroundTruth(views, []).positions_at(t)
            assert xs.tolist() == vx.tolist() and ys.tolist() == vy.tolist()
        xs, ys = GroundTruth(parked, []).positions_at(0.4)
        assert xs.tolist() == [oid / 150 for oid in range(150)]
        assert ys.tolist() == [0.5] * 150

    def test_the_distance_pass_reads_a_block_at_a_time(self):
        """At N = 20,000 (``BENCH_BASE`` model, built to 1.0) the pass
        allocates at most 4 MB at its peak (tracemalloc); reading every
        leg's velocity as Python floats at once peaked at ~25 MB.  The
        total is the per-row distances summed in row order, bit for bit."""
        model = RandomWaypointModel(
            BENCH_BASE.mean_speed, BENCH_BASE.mean_period, BENCH_BASE.space,
            seed=1,
        )
        fleet = model.build(range(20_000), 1.0)
        gc.collect()
        tracemalloc.start()
        try:
            total = total_distance_travelled(fleet.values(), 0.0, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
        assert total.hex() == sum(
            trajectory.distance_travelled(0.0, 1.0)
            for trajectory in fleet.values()
        ).hex()


class TestMobileClient:
    def make_client(self):
        return Clients({"c1": make_trajectory(seed=20)})["c1"]

    def test_install_inside_schedules_monitoring(self):
        client = self.make_client()
        p = client.position_at(0.0)
        region = Rect(p.x - 0.1, p.y - 0.1, p.x + 0.1, p.y + 0.1)
        assert client.install_safe_region(region, 0.0) is True
        assert not client.awaiting
        exit_at = client.next_exit_time(0.0, 100.0)
        assert exit_at > 0.0

    def test_install_outside_reports(self):
        client = self.make_client()
        region = Rect(2, 2, 3, 3)
        assert client.install_safe_region(region, 0.0) is False

    def test_epoch_invalidates_old_events(self):
        client = self.make_client()
        p = client.position_at(0.0)
        region = Rect(p.x - 0.1, p.y - 0.1, p.x + 0.1, p.y + 0.1)
        client.install_safe_region(region, 0.0)
        old_epoch = client.epoch
        client.install_safe_region(region, 0.1)
        assert client.epoch != old_epoch

    def test_begin_update_mutes(self):
        client = self.make_client()
        p = client.position_at(0.0)
        client.install_safe_region(Rect(p.x - 0.1, p.y - 0.1, p.x + 0.1, p.y + 0.1), 0.0)
        client.begin_update()
        assert client.awaiting
        assert client.next_exit_time(0.0, 10.0) == math.inf

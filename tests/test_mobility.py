"""Tests for the random waypoint model and client logic (Section 7.1)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Rect
from repro.mobility import MobileClient, RandomWaypointModel, Segment, Trajectory
from repro.mobility.waypoint import exit_times_from_rects

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def make_trajectory(oid=0, speed=0.05, period=0.3, seed=0):
    return RandomWaypointModel(speed, period, UNIT, seed=seed).create(oid)


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
            for segment in trajectory._segments:
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
    """A trajectory whose first leg is ``first``; the RNG draws the rest."""
    trajectory = Trajectory(
        first.start, 0.05, 0.3, UNIT, np.random.default_rng(seed)
    )
    trajectory._segments.append(first)
    trajectory._cursor = first.position_at(first.end_time)
    trajectory._cursor_time = first.end_time
    return trajectory


class TestColumnarExitTimes:
    """``exit_times_from_rects`` is ``MobileClient.next_exit_time``, bit
    for bit — the engine schedules every first exit from it."""

    @staticmethod
    def check(cases, t, horizon):
        """``cases``: ``(trajectory factory, rect)``; returns the times."""
        clients = []
        for make, rect in cases:
            client = MobileClient(len(clients), make())
            client.adopt_safe_region(rect)
            clients.append(client)
        want = [client.next_exit_time(t, horizon) for client in clients]
        got = exit_times_from_rects(
            [make() for make, _ in cases],
            [rect for _, rect in cases],
            t,
            horizon,
        )
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
                cases = []
                for oid in range(64):
                    p = model.create(oid).position_at(t)
                    # From a sliver left within the leg to a box that
                    # outlasts several legs; one in eight excludes p.
                    half = 10.0 ** rng.uniform(-5.0, -0.5)
                    shift = 2.5 * half if oid % 8 == 0 else 0.0
                    cases.append((
                        lambda oid=oid: model.create(oid),
                        Rect(
                            p.x - half * rng.random() + shift,
                            p.y - half * rng.random(),
                            p.x + half * rng.random() + shift,
                            p.y + half * rng.random(),
                        ),
                    ))
                got = self.check(cases, t, horizon)
                triples += len(cases)
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
        for seed in range(8):
            scripts = [
                (lambda leg=leg, seed=seed: scripted(leg, seed), rect)
                for leg, rect in cases
            ]
            # Horizons: past every exit, between leg end and exit, at
            # the leg end exactly, inside the leg, and zero.
            for horizon in (10.0, 0.6, 0.5, 0.3, 0.0):
                got = self.check(scripts, 0.0, horizon)
                if horizon >= 0.5:
                    assert got[0] == 0.5
                else:
                    assert got[0] == math.inf  # exit past the horizon
                assert got[7] == 0.0 and got[8] > 0.0
            # Mid-leg, and from the very end of the scripted leg.
            self.check(scripts, 0.25, 10.0)
            self.check(scripts, 0.5, 10.0)
        assert exit_times_from_rects([], [], 0.0, 1.0) == []


class TestMobileClient:
    def make_client(self):
        return MobileClient("c1", make_trajectory(seed=20))

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

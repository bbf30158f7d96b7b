"""The random waypoint mobility model (Section 7.1).

Each object repeatedly chooses a uniform destination in the workspace and
moves towards it at a speed drawn from ``U(0, 2 v_mean)``; it re-plans upon
arrival or when its *constant movement period* (drawn from
``U(0, 2 t_v_mean)``) expires.  Trajectories are piecewise linear, generated
lazily and deterministically from a per-object seed, so the exact position
at any time — and the exact moment a safe region is exited — can be
computed analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect

_MIN_SEGMENT = 1e-9


@dataclass(frozen=True, slots=True)
class Segment:
    """One linear leg of a trajectory: valid for ``start_time <= t <= end_time``."""

    start_time: float
    end_time: float
    start: Point
    velocity_x: float
    velocity_y: float

    def position_at(self, t: float) -> Point:
        dt = min(max(t, self.start_time), self.end_time) - self.start_time
        return Point(
            self.start.x + self.velocity_x * dt,
            self.start.y + self.velocity_y * dt,
        )

    @property
    def speed(self) -> float:
        return math.hypot(self.velocity_x, self.velocity_y)


class Trajectory:
    """Lazily generated piecewise-linear random-waypoint trajectory."""

    def __init__(
        self,
        start: Point,
        mean_speed: float,
        mean_period: float,
        space: Rect,
        rng: np.random.Generator,
    ) -> None:
        if mean_speed <= 0:
            raise ValueError("mean speed must be positive")
        if mean_period <= 0:
            raise ValueError("mean movement period must be positive")
        self._mean_speed = mean_speed
        self._mean_period = mean_period
        self._space = space
        self._rng = rng
        self._segments: list[Segment] = []
        self._cursor = start
        self._cursor_time = 0.0
        self._search_from = 0

    @property
    def max_speed(self) -> float:
        """Upper bound on this trajectory's speed (``2 v_mean``)."""
        return 2.0 * self._mean_speed

    def _extend_to(self, t: float) -> None:
        while self._cursor_time <= t:
            self._segments.append(self._next_segment())

    def _next_segment(self) -> Segment:
        """Draw the next waypoint leg from the per-object RNG."""
        origin = self._cursor
        space = self._space
        # One draw of four variates, scaled as ``Generator.uniform``
        # scales them (``lo + (hi - lo) * u``): the same stream and the
        # same floats as four scalar ``uniform`` calls, at a sixth of
        # the cost (tests/test_mobility.py pins the equality).
        ux, uy, us, ut = self._rng.random(4).tolist()
        destination = Point(
            space.min_x + (space.max_x - space.min_x) * ux,
            space.min_y + (space.max_y - space.min_y) * uy,
        )
        speed = 2.0 * self._mean_speed * us
        period = max(2.0 * self._mean_period * ut, _MIN_SEGMENT)

        distance = origin.distance_to(destination)
        if speed <= 0.0 or distance == 0.0:
            duration = period
            vx = vy = 0.0
        else:
            travel_time = distance / speed
            duration = min(travel_time, period)
            vx = (destination.x - origin.x) / distance * speed
            vy = (destination.y - origin.y) / distance * speed

        start_time = self._cursor_time
        end_time = start_time + duration
        segment = Segment(start_time, end_time, origin, vx, vy)
        self._cursor = segment.position_at(end_time)
        self._cursor_time = end_time
        return segment

    def segment_at(self, t: float) -> Segment:
        """The segment active at time ``t`` (generated on demand)."""
        if t < 0:
            raise ValueError(f"time must be non-negative: {t}")
        self._extend_to(t)
        # Segments are visited in (almost always) increasing time order;
        # remember the last hit to amortise the scan.
        i = self._search_from
        segments = self._segments
        if segments[i].start_time > t:
            i = 0
        while segments[i].end_time < t:
            i += 1
        self._search_from = i
        return segments[i]

    def position_at(self, t: float) -> Point:
        """Exact position at time ``t``."""
        return self.segment_at(t).position_at(t)

    def distance_travelled(self, t0: float, t1: float) -> float:
        """Path length covered between ``t0`` and ``t1``."""
        if t1 <= t0:
            return 0.0
        self._extend_to(t1)
        total = 0.0
        for segment in self._segments:
            if segment.end_time <= t0:
                continue
            if segment.start_time >= t1:
                break
            overlap = min(segment.end_time, t1) - max(segment.start_time, t0)
            total += segment.speed * overlap
        return total

    def exit_time_from_rect(self, rect: Rect, t: float, horizon: float) -> float:
        """First time in ``[t, horizon]`` the trajectory leaves ``rect``.

        Walks segments from ``t`` forward, solving each leg analytically.
        Returns ``inf`` when the object stays inside until ``horizon``.
        """
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
            # Hop just past the segment boundary so the successor is picked.
            current = math.nextafter(max(segment.end_time, current), math.inf)
        return math.inf


def _segment_exit(position: Point, segment: Segment, rect: Rect) -> float:
    """Time (relative) until a segment's motion leaves ``rect``."""
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


def exit_times_from_rects(
    trajectories: Sequence[Trajectory],
    rects: Sequence[Rect],
    t: float,
    horizon: float,
) -> list[float]:
    """:meth:`Trajectory.exit_time_from_rect` for many pairs, bit for bit.

    One columnar pass over the (leg active at ``t``, rect) columns
    answers every row that leg decides — already outside, exit inside
    the leg, or leg end and exit both past ``horizon`` — with the same
    IEEE operations in the same order as the scalar walk; only rows
    whose leg ends first, before the horizon, walk on through it.
    """
    n = len(trajectories)
    if t > horizon:
        return [math.inf] * n
    legs = [trajectory.segment_at(t) for trajectory in trajectories]

    def column(values) -> np.ndarray:
        return np.fromiter(values, np.float64, n)

    start_time = column(leg.start_time for leg in legs)
    end_time = column(leg.end_time for leg in legs)
    vx = column(leg.velocity_x for leg in legs)
    vy = column(leg.velocity_y for leg in legs)
    # ``Segment.position_at(t)``.
    dt = np.minimum(np.maximum(t, start_time), end_time) - start_time
    px = column(leg.start.x for leg in legs) + vx * dt
    py = column(leg.start.y for leg in legs) + vy * dt
    min_x = column(rect.min_x for rect in rects)
    min_y = column(rect.min_y for rect in rects)
    max_x = column(rect.max_x for rect in rects)
    max_y = column(rect.max_y for rect in rects)
    inside = (
        (min_x - 1e-12 <= px) & (px <= max_x + 1e-12)
        & (min_y - 1e-12 <= py) & (py <= max_y + 1e-12)
    )
    # ``_segment_exit``: a zero velocity component never exits.
    with np.errstate(divide="ignore", invalid="ignore"):
        exit_x = np.where(vx > 0.0, max_x - px, min_x - px) / vx
        exit_y = np.where(vy > 0.0, max_y - py, min_y - py) / vy
    exit_x[vx == 0.0] = math.inf
    exit_y[vy == 0.0] = math.inf
    exit_at = t + np.maximum(np.minimum(exit_x, exit_y), 0.0)
    in_leg = inside & (exit_at <= end_time)
    out = np.where(in_leg & (exit_at <= horizon), exit_at, math.inf)
    out[~inside] = t
    # Undecided: the leg ends before the exit and the walk's next hop,
    # just past the leg's end, is still within the horizon.
    hop = np.nextafter(np.maximum(end_time, t), math.inf)
    times = out.tolist()
    for row in np.flatnonzero(inside & ~in_leg & (hop <= horizon)).tolist():
        times[row] = trajectories[row].exit_time_from_rect(
            rects[row], t, horizon
        )
    return times


class RandomWaypointModel:
    """Factory producing deterministic per-object trajectories."""

    def __init__(
        self,
        mean_speed: float,
        mean_period: float,
        space: Rect | None = None,
        seed: int = 0,
    ) -> None:
        self.mean_speed = mean_speed
        self.mean_period = mean_period
        self.space = space if space is not None else Rect(0.0, 0.0, 1.0, 1.0)
        self._seed = seed

    def create(self, oid: int) -> Trajectory:
        """Trajectory for object ``oid`` (reproducible per (seed, oid))."""
        rng = np.random.default_rng((self._seed, int(oid)))
        space = self.space
        # One draw of two variates, scaled as ``Generator.uniform``
        # scales them — see ``Trajectory._next_segment``.
        ux, uy = rng.random(2).tolist()
        start = Point(
            space.min_x + (space.max_x - space.min_x) * ux,
            space.min_y + (space.max_y - space.min_y) * uy,
        )
        return Trajectory(
            start, self.mean_speed, self.mean_period, self.space, rng
        )

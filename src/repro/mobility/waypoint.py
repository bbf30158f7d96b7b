"""The random waypoint mobility model (Section 7.1).

Each object repeatedly chooses a uniform destination in the workspace and
moves towards it at a speed drawn from ``U(0, 2 v_mean)``; it re-plans upon
arrival or when its *constant movement period* (drawn from
``U(0, 2 t_v_mean)``) expires.  Trajectories are piecewise linear and
deterministic per ``(seed, oid)``, so the exact position at any time — and
the exact moment a safe region is exited — can be computed analytically.

Legs are float columns, not objects.  :meth:`RandomWaypointModel.build`
draws every leg up to a horizon for a block of objects at a time,
vectorised across the block, into one ``(legs, 6)`` float array per block
— start time, end time, start point and velocity, 48 bytes a leg — and
each :class:`Trajectory` is a run of rows in its block.  The variates are
each object's ``default_rng((seed, oid))`` stream, bit for bit, drawn as
columns (:class:`~repro.mobility.streams.Streams`): no generator is ever
made.  A trajectory asked about a time past its last leg re-seeds its
stream, jumps it past the variates its legs used, and extends through
the same builder.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.streams import Streams

_MIN_SEGMENT = 1e-9

#: Objects per leg block: long enough to amortise the array calls of a
#: build step, short enough that a block's variates stay a few MB.
#: ``SRBSimulation`` solves first exits a block at a time too.
BLOCK = 8192

#: Legs' worth of variates drawn per stream call; a row that needs more
#: draws again.  ``random(2 + 4 L)`` and ``random(2)`` followed by L
#: ``random(4)`` calls yield the same floats: one double per step.
_CHUNK_LEGS = 16

#: Floats per leg, in row order: start time, end time, start x, start
#: y, velocity x, velocity y; ``_T1`` is the end time's place.
_W = 6
_T1 = 1
#: One leg's six floats from a block's flat view at a byte offset: one
#: call where six memoryview indexings cost half as much again.
_unpack_leg = struct.Struct(f"{_W}d").unpack_from


def _check_horizon(horizon: float) -> None:
    # A walk or build to an infinite horizon never ends.
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite: {horizon}")


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


class LegBlock:
    """The legs of a block of trajectories: a ``(n, 6)`` float array, a
    row per leg, plus a flat memoryview of it for scalar reads.

    A leg's six floats share a cache line or two, and a memoryview index
    is a plain ``float`` (half the cost of a NumPy scalar).
    """

    __slots__ = ("rows", "flat")

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.flat = memoryview(rows.reshape(-1))


class Trajectory:
    """A piecewise-linear random-waypoint trajectory: legs ``lo:hi`` of a
    :class:`LegBlock`, extended on demand past its last leg.

    ``_lo``, ``_hi`` and ``_at`` are offsets into the block's flat view,
    ``6 × leg``: the run's first leg, one past its last, and the leg the
    last lookup landed on.
    """

    __slots__ = ("_model", "_oid", "_legs", "_lo", "_hi", "_at")

    def __init__(
        self,
        model: RandomWaypointModel,
        oid,
        legs: LegBlock,
        lo: int,
        hi: int,
    ) -> None:
        self._model = model
        self._oid = oid
        self._legs = legs
        self._lo = _W * lo
        self._hi = _W * hi
        # Lookups run (almost always) forward in time: the next scan
        # starts where the last one landed.
        self._at = self._lo

    @property
    def max_speed(self) -> float:
        """Upper bound on this trajectory's speed (``2 v_mean``)."""
        return 2.0 * self._model.mean_speed

    def _cover(self, t: float) -> None:
        """Build legs on until the last one ends after ``t``."""
        end = self._legs.flat[self._hi - _W + _T1]
        if t >= end:
            # Doubling keeps a trajectory read ever later to a few builds.
            self._model._extend((self,), max(t, 2.0 * end))

    def _leg(self, t: float) -> int:
        """Offset of the leg active at ``t``.

        At a leg boundary both legs are active; the cursor decides, and
        exit walks from there differ in the last ulp, so every reader
        goes through here — before it reads ``_legs``, which building on
        moves to a new block.
        """
        if t < 0:
            raise ValueError(f"time must be non-negative: {t}")
        legs = self._legs.flat
        b = self._at
        if legs[b] > t:
            b = self._lo
        while legs[b + 1] < t:
            b += _W
            if b == self._hi:
                # Past the last leg: build on, then resume at the same
                # leg's new offset.
                self._at = b - _W
                self._cover(t)
                legs = self._legs.flat
                b = self._at + _W
        self._at = b
        return b

    def segment_at(self, t: float) -> Segment:
        """The leg active at time ``t``."""
        b = self._leg(t)
        start, end, x, y, vx, vy = _unpack_leg(self._legs.flat, 8 * b)
        return Segment(start, end, Point(x, y), vx, vy)

    def position_at(self, t: float) -> Point:
        """Exact position at time ``t``."""
        b = self._leg(t)
        start, end, x, y, vx, vy = _unpack_leg(self._legs.flat, 8 * b)
        # ``Segment.position_at``: ``min(max(t, start), end) - start``,
        # comparison for comparison, without two builtin calls.
        clamped = start if start > t else t
        dt = (end if end < clamped else clamped) - start
        return Point(x + vx * dt, y + vy * dt)

    def distance_travelled(self, t0: float, t1: float) -> float:
        """Path length covered between ``t0`` and ``t1``."""
        if t1 <= t0:
            return 0.0
        self._cover(t1)
        legs = self._legs.flat
        total = 0.0
        for b in range(self._lo, self._hi, _W):
            start, end = legs[b], legs[b + 1]
            if end <= t0:
                continue
            if start >= t1:
                break
            overlap = min(end, t1) - max(start, t0)
            total += math.hypot(legs[b + 4], legs[b + 5]) * overlap
        return total

    def exit_time_from_rect(self, rect: Rect, t: float, horizon: float) -> float:
        """First time in ``[t, horizon]`` the trajectory leaves ``rect``.

        Walks legs from ``t`` forward, solving each analytically.
        Returns ``inf`` when the object stays inside until ``horizon``.
        """
        _check_horizon(horizon)
        current = t
        while current <= horizon:
            b = self._leg(current)
            start, end, x, y, vx, vy = _unpack_leg(self._legs.flat, 8 * b)
            # ``min(max(current, start), end) - start``, as in
            # :meth:`position_at`.
            clamped = start if start > current else current
            dt = (end if end < clamped else clamped) - start
            x += vx * dt
            y += vy * dt
            # ``rect.contains_point(position, eps=1e-12)``.
            if not (
                rect.min_x - 1e-12 <= x <= rect.max_x + 1e-12
                and rect.min_y - 1e-12 <= y <= rect.max_y + 1e-12
            ):
                return current
            if vx != 0.0 or vy != 0.0:
                exit_at = current + _leg_exit(x, y, vx, vy, rect)
                if exit_at <= end:
                    return exit_at if exit_at <= horizon else math.inf
            # Hop just past the leg's end so the successor is picked
            # (``max(end, current)``).
            current = math.nextafter(
                current if current > end else end, math.inf
            )
        return math.inf


def _leg_exit(x: float, y: float, vx: float, vy: float, rect: Rect) -> float:
    """Time (relative) until motion from ``(x, y)`` leaves ``rect``.

    ``min`` and ``max`` spelled as the comparisons they make (``min(inf,
    v)`` is ``v``), without the builtin calls.
    """
    t_exit = math.inf
    if vx > 0.0:
        t_exit = (rect.max_x - x) / vx
    elif vx < 0.0:
        t_exit = (rect.min_x - x) / vx
    if vy > 0.0:
        along_y = (rect.max_y - y) / vy
        if along_y < t_exit:
            t_exit = along_y
    elif vy < 0.0:
        along_y = (rect.min_y - y) / vy
        if along_y < t_exit:
            t_exit = along_y
    return 0.0 if 0.0 > t_exit else t_exit


def _stacked(
    trajectories: Sequence[Trajectory],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(legs, lo, hi)``: one leg array over the trajectories' blocks —
    the block itself when they share one — and each one's legs in it."""
    blocks: dict[LegBlock, int] = {}
    index, lo, hi = [], [], []
    for trajectory in trajectories:
        index.append(blocks.setdefault(trajectory._legs, len(blocks)))
        lo.append(trajectory._lo)
        hi.append(trajectory._hi)
    lo = np.array(lo, dtype=np.intp) // _W
    hi = np.array(hi, dtype=np.intp) // _W
    if len(blocks) == 1:
        return next(iter(blocks)).rows, lo, hi
    arrays = [legs.rows for legs in blocks]
    sizes = [len(array) for array in arrays]
    base = (np.cumsum(sizes) - sizes)[np.array(index, dtype=np.intp)]
    return np.concatenate(arrays), lo + base, hi + base


def _covered(
    trajectories: Sequence[Trajectory], t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_stacked`, once every trajectory's legs run past ``t``."""
    legs, lo, hi = stacked = _stacked(trajectories)
    short = np.flatnonzero(legs[hi - 1, _T1] <= t).tolist()
    if not short:
        return stacked
    by_model: dict[RandomWaypointModel, list[Trajectory]] = {}
    for i in short:
        trajectory = trajectories[i]
        by_model.setdefault(trajectory._model, []).append(trajectory)
    for model, group in by_model.items():
        model._extend(group, t)
    return _stacked(trajectories)


def exit_times_from_rects(
    trajectories: Sequence[Trajectory],
    rects: Sequence[Rect],
    t: float,
    horizon: float,
) -> list[float]:
    """:meth:`Trajectory.exit_time_from_rect` for many pairs, bit for bit.

    A columnar walk over the (active leg, rect) columns: each step
    answers every row its leg decides — already outside, exit inside the
    leg, or the hop past the leg's end lands past ``horizon`` — with the
    same IEEE operations in the same order as the scalar walk, and moves
    the rest on to their next leg.  Each trajectory's lookup cursor ends
    where the scalar walk leaves it.
    """
    _check_horizon(horizon)
    n = len(trajectories)
    if t > horizon:
        return [math.inf] * n
    if not n:
        return []
    legs, lo, _ = _covered(trajectories, horizon)
    leg = lo + np.array(
        [trajectory._leg(t) - trajectory._lo for trajectory in trajectories],
        dtype=np.intp,
    ) // _W
    first = leg.copy()
    last = leg.copy()

    def column(values) -> np.ndarray:
        return np.fromiter(values, np.float64, n)

    min_x = column(rect.min_x for rect in rects)
    min_y = column(rect.min_y for rect in rects)
    max_x = column(rect.max_x for rect in rects)
    max_y = column(rect.max_y for rect in rects)
    out = np.full(n, math.inf)
    rows = np.arange(n)
    current = np.full(n, float(t))
    while rows.size:
        start, end, x, y, vx, vy = legs[leg].T
        # ``Segment.position_at(current)``.
        dt = np.minimum(np.maximum(current, start), end) - start
        px = x + vx * dt
        py = y + vy * dt
        lx, ly, hx, hy = min_x[rows], min_y[rows], max_x[rows], max_y[rows]
        inside = (
            (lx - 1e-12 <= px) & (px <= hx + 1e-12)
            & (ly - 1e-12 <= py) & (py <= hy + 1e-12)
        )
        # ``_leg_exit``: a zero velocity component never exits.
        with np.errstate(divide="ignore", invalid="ignore"):
            exit_x = np.where(vx > 0.0, hx - px, lx - px) / vx
            exit_y = np.where(vy > 0.0, hy - py, ly - py) / vy
        exit_x[vx == 0.0] = math.inf
        exit_y[vy == 0.0] = math.inf
        exit_at = current + np.maximum(np.minimum(exit_x, exit_y), 0.0)
        in_leg = inside & (exit_at <= end)
        out[rows[~inside]] = current[~inside]
        found = in_leg & (exit_at <= horizon)
        out[rows[found]] = exit_at[found]
        last[rows] = leg
        # The rest hop just past their leg's end, while within the horizon.
        hop = np.nextafter(np.maximum(end, current), math.inf)
        on = inside & ~in_leg & (hop <= horizon)
        rows, leg, current = rows[on], leg[on], hop[on]
        behind = legs[leg, _T1] < current
        while behind.any():
            leg[behind] += 1
            behind = legs[leg, _T1] < current
    for row in np.flatnonzero(last != first).tolist():
        trajectory = trajectories[row]
        trajectory._at = trajectory._lo + _W * int(last[row] - lo[row])
    return out.tolist()


def total_distance_travelled(
    trajectories: Iterable[Trajectory], t0: float, t1: float
) -> float:
    """``sum(tr.distance_travelled(t0, t1) for tr in trajectories)``, bit
    for bit, in one pass over the leg columns: step ``k`` adds every
    trajectory's ``k``-th leg, so each sum runs in leg order."""
    trajectories = list(trajectories)
    n = len(trajectories)
    totals = np.zeros(n)
    if t1 > t0 and n:
        legs, lo, hi = _covered(trajectories, t1)
        start, end, _, _, vx, vy = legs.T
        speed = np.fromiter(
            map(math.hypot, vx.tolist(), vy.tolist()), np.float64, vx.size
        )
        overlap = np.minimum(end, t1) - np.maximum(start, t0)
        # A leg outside ``(t0, t1)`` adds an exact zero.
        travelled = np.where((end > t0) & (start < t1), speed * overlap, 0.0)
        count = hi - lo
        for k in range(int(count.max())):
            live = np.flatnonzero(count > k)
            totals[live] += travelled[lo[live] + k]
    return sum(totals.tolist())


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

    def create(self, oid) -> Trajectory:
        """Trajectory for object ``oid`` (reproducible per (seed, oid))."""
        return self.build((oid,), 0.0)[oid]

    def build(self, oids: Iterable, horizon: float) -> dict:
        """Trajectories for ``oids``, keyed by oid, every leg drawn until
        each passes ``horizon``: a block of objects at a time, each from
        its own ``default_rng((seed, oid))`` stream, seeded and drawn
        across the block as :class:`Streams` columns."""
        if self.mean_speed <= 0:
            raise ValueError("mean speed must be positive")
        if self.mean_period <= 0:
            raise ValueError("mean movement period must be positive")
        _check_horizon(horizon)
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative: {horizon}")
        oids = list(oids)
        space = self.space
        built = {}
        for first in range(0, len(oids), BLOCK):
            block = oids[first:first + BLOCK]
            streams = Streams(self._seed, block)
            # Two variates for the start point, then the first chunk of
            # legs', each scaled as ``Generator.uniform`` scales them.
            u = streams.random(np.arange(len(block)), 2 + 4 * _CHUNK_LEGS)
            x = space.min_x + (space.max_x - space.min_x) * u[:, 0]
            y = space.min_y + (space.max_y - space.min_y) * u[:, 1]
            steps = self._walk(
                streams, x, y, np.zeros(len(block)), horizon, u[:, 2:]
            )
            legs, lo, count = _lay_out(steps, np.zeros(len(block), np.intp))
            for oid, row, n in zip(block, lo.tolist(), count.tolist()):
                built[oid] = Trajectory(self, oid, legs, row, row + n)
        return built

    def _extend(self, trajectories: Sequence[Trajectory], horizon: float) -> None:
        """Build legs on until each trajectory's last ends past ``horizon``.

        Each stream is re-seeded and jumped past the variates the built
        legs used (two for the start, four a leg) with
        :meth:`Streams.advance`, which continues it exactly; the old legs
        and the new move to a fresh block.
        """
        _check_horizon(horizon)
        x, y, t, keep = [], [], [], []
        for trajectory in trajectories:
            n = (trajectory._hi - trajectory._lo) // _W
            # The cursor: ``Segment.position_at(end_time)`` of the last leg.
            old = trajectory._legs.flat
            start, end, lx, ly, vx, vy = old[trajectory._hi - _W:trajectory._hi]
            x.append(lx + vx * (end - start))
            y.append(ly + vy * (end - start))
            t.append(end)
            keep.append(n)
        keep = np.array(keep, dtype=np.intp)
        streams = Streams(
            self._seed, [trajectory._oid for trajectory in trajectories]
        )
        streams.advance(np.arange(len(keep)), 2 + 4 * keep)
        steps = self._walk(
            streams, np.array(x), np.array(y), np.array(t), horizon, None
        )
        legs, lo, count = _lay_out(steps, keep)
        for trajectory, row, n, kept in zip(
            trajectories, lo.tolist(), count.tolist(), keep.tolist()
        ):
            first = trajectory._lo // _W
            legs.rows[row:row + kept] = trajectory._legs.rows[first:first + kept]
            trajectory._at += _W * row - trajectory._lo
            trajectory._legs = legs
            trajectory._lo = _W * row
            trajectory._hi = _W * (row + n)

    def _walk(
        self,
        streams: Streams,
        x: np.ndarray,
        y: np.ndarray,
        t: np.ndarray,
        horizon: float,
        u: np.ndarray | None,
    ) -> list[tuple[np.ndarray, ...]]:
        """Legs from cursors ``(x, y, t)`` (updated in place) until each
        passes ``horizon``, step-major: step ``k`` holds the ``k``-th new
        leg of every row still short of it, as ``(rows, *fields)``.

        ``u`` holds leg variates already drawn, four a leg, a row per
        stream; more are drawn from ``streams`` as rows run out.  Every
        operation is the scalar leg's, in its order —
        ``Point.distance_to`` included, whose CPython ``hypot`` NumPy's
        differs from in the last ulp.
        """
        space = self.space
        width = space.max_x - space.min_x
        height = space.max_y - space.min_y
        speed_scale = 2.0 * self.mean_speed
        period_scale = 2.0 * self.mean_period
        steps = []
        rows = np.flatnonzero(t <= horizon)
        drawn = 0 if u is None else u.shape[1] // 4
        k = 0
        while rows.size:
            if k == drawn:
                u = np.empty((len(streams), 4 * _CHUNK_LEGS))
                u[rows] = streams.random(rows, 4 * _CHUNK_LEGS)
                k, drawn = 0, _CHUNK_LEGS
            ux, uy, us, ut = u[rows, 4 * k:4 * k + 4].T
            ox, oy, start = x[rows], y[rows], t[rows]
            dest_x = space.min_x + width * ux
            dest_y = space.min_y + height * uy
            speed = speed_scale * us
            period = np.maximum(period_scale * ut, _MIN_SEGMENT)
            distance = np.fromiter(
                map(math.hypot, (ox - dest_x).tolist(), (oy - dest_y).tolist()),
                np.float64,
                rows.size,
            )
            moving = (speed > 0.0) & (distance != 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                duration = np.where(
                    moving, np.minimum(distance / speed, period), period
                )
                vx = np.where(moving, (dest_x - ox) / distance * speed, 0.0)
                vy = np.where(moving, (dest_y - oy) / distance * speed, 0.0)
            end = start + duration
            # ``Segment.position_at(end)``: the next leg's start.
            dt = end - start
            x[rows] = ox + vx * dt
            y[rows] = oy + vy * dt
            t[rows] = end
            steps.append((rows, start, end, ox, oy, vx, vy))
            rows = rows[end <= horizon]
            k += 1
        return steps


def _lay_out(
    steps: list[tuple[np.ndarray, ...]], keep: np.ndarray
) -> tuple[LegBlock, np.ndarray, np.ndarray]:
    """A block holding each row's legs as one run: ``keep[r]`` legs left
    free at the head of row ``r``'s run, then its new legs in step order.
    Returns the block and each run's first leg and length."""
    count = keep.copy()
    for rows, *_ in steps:
        count[rows] += 1
    lo = np.cumsum(count) - count
    legs = np.empty((int(count.sum()), _W))
    head = lo + keep
    for k, (rows, *fields) in enumerate(steps):
        legs[head[rows] + k] = np.column_stack(fields)
    return LegBlock(legs), lo, count

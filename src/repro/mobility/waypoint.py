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
— start time, end time, start point and velocity, 48 bytes a leg.  Movers
are rows too: a :class:`Fleet` keeps each one's block, first and last leg
and lookup cursor in per-row columns, and a :class:`Trajectory` is a
``(fleet, row)`` view of one, made on access.  The variates are
each object's ``default_rng((seed, oid))`` stream, bit for bit, drawn as
columns (:class:`~repro.mobility.streams.Streams`): no generator is ever
made.  A trajectory asked about a time past its last leg re-seeds its
stream, jumps it past the variates its legs used, and extends through
the same builder.
"""

from __future__ import annotations

import math
import struct
from array import array
from collections.abc import ValuesView
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.streams import Streams
from repro.rows import Rows

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
    """A piecewise-linear random-waypoint trajectory: a view of row
    ``row`` of a :class:`Fleet`, extended on demand past its last leg."""

    __slots__ = ("_fleet", "_row")

    def __init__(self, fleet: Fleet, row: int) -> None:
        self._fleet = fleet
        self._row = row

    @property
    def max_speed(self) -> float:
        """Upper bound on this trajectory's speed (``2 v_mean``)."""
        return 2.0 * self._fleet._model.mean_speed

    def _leg(self, t: float) -> tuple[memoryview, int]:
        """The flat leg view and the offset of the leg active at ``t``.

        At a leg boundary both legs are active; the cursor decides, and
        exit walks from there differ in the last ulp, so every reader
        goes through here — and reads the view it returns, as building
        on moves the row to a new block.
        """
        if t < 0:
            raise ValueError(f"time must be non-negative: {t}")
        fleet, row = self._fleet, self._row
        legs = fleet._legs[row].flat
        # Lookups run (almost always) forward in time: the scan starts
        # where the last one landed.
        b = fleet._at[row]
        if legs[b] > t:
            b = fleet._lo[row]
        while legs[b + 1] < t:
            b += _W
            if b == fleet._hi[row]:
                # Past the last leg: build on — doubling keeps a row read
                # ever later to a few builds — then resume at the same
                # leg's new offset.
                fleet._at[row] = b - _W
                fleet._extend((row,), max(t, 2.0 * legs[b - _W + _T1]))
                legs = fleet._legs[row].flat
                b = fleet._at[row] + _W
        fleet._at[row] = b
        return legs, b

    def segment_at(self, t: float) -> Segment:
        """The leg active at time ``t``."""
        legs, b = self._leg(t)
        start, end, x, y, vx, vy = _unpack_leg(legs, 8 * b)
        return Segment(start, end, Point(x, y), vx, vy)

    def position_at(self, t: float) -> Point:
        """Exact position at time ``t``."""
        legs, b = self._leg(t)
        start, end, x, y, vx, vy = _unpack_leg(legs, 8 * b)
        # ``Segment.position_at``: ``min(max(t, start), end) - start``,
        # comparison for comparison, without two builtin calls.
        clamped = start if start > t else t
        dt = (end if end < clamped else clamped) - start
        return Point(x + vx * dt, y + vy * dt)

    def distance_travelled(self, t0: float, t1: float) -> float:
        """Path length covered between ``t0`` and ``t1``."""
        return total_distance_travelled((self,), t0, t1)

    def exit_time_from_rect(self, rect: Rect, t: float, horizon: float) -> float:
        """First time in ``[t, horizon]`` the trajectory leaves ``rect``.

        Walks legs from ``t`` forward, solving each analytically.
        Returns ``inf`` when the object stays inside until ``horizon``.
        """
        _check_horizon(horizon)
        fleet, row = self._fleet, self._row
        current, b = t, None
        while current <= horizon:
            if b is None or b + _W == fleet._hi[row] or legs[b + _W + _T1] < current:
                # The walk's first leg, the run's end, or a leg to skip:
                # ``_leg`` walks on (and builds on) from the cursor.
                legs, b = self._leg(current)
            else:
                b += _W
                fleet._at[row] = b
            start, end, x, y, vx, vy = _unpack_leg(legs, 8 * b)
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


class Fleet(Rows):
    """Trajectories keyed by oid, a row each, in columns: its
    :class:`LegBlock`, and its first leg, one past its last and lookup
    cursor as offsets (``6 × leg``) into the block's flat view."""

    __slots__ = ("_model", "_legs", "_lo", "_hi", "_at")
    _View = Trajectory

    def __init__(self, model: RandomWaypointModel, oids: Iterable) -> None:
        super().__init__(oids)
        self._model = model
        self._legs: list[LegBlock] = []
        self._lo, self._hi, self._at = array("q"), array("q"), array("q")

    def _append(self, legs: LegBlock, lo: np.ndarray, count: np.ndarray) -> None:
        """Rows for the next ``len(lo)`` oids: runs ``lo:lo + count`` of ``legs``."""
        self._legs += [legs] * len(lo)
        self._lo.extend((_W * lo).tolist())
        self._hi.extend((_W * (lo + count)).tolist())
        self._at.extend((_W * lo).tolist())

    def _extend(self, rows: Sequence[int], horizon: float) -> None:
        """Build legs on until each row's last ends past ``horizon``.

        Each stream is re-seeded and jumped past the variates the built
        legs used (two for the start, four a leg) with
        :meth:`Streams.advance`, which continues it exactly; the old legs
        and the new move to a fresh block.
        """
        _check_horizon(horizon)
        blocks, lo, hi, at = self._legs, self._lo, self._hi, self._at
        x, y, t, keep = [], [], [], []
        for row in rows:
            # The cursor: ``Segment.position_at(end_time)`` of the last leg.
            start, end, lx, ly, vx, vy = _unpack_leg(
                blocks[row].flat, 8 * (hi[row] - _W)
            )
            x.append(lx + vx * (end - start))
            y.append(ly + vy * (end - start))
            t.append(end)
            keep.append((hi[row] - lo[row]) // _W)
        keep = np.array(keep, dtype=np.intp)
        streams = Streams(self._model._seed, [self._oids[row] for row in rows])
        streams.advance(np.arange(len(keep)), 2 + 4 * keep)
        steps = self._model._walk(
            streams, np.array(x), np.array(y), np.array(t), horizon, None
        )
        legs, first, count = _lay_out(steps, keep)
        for row, new, n, kept in zip(rows, first.tolist(), count.tolist(), keep.tolist()):
            old = lo[row] // _W
            legs.rows[new:new + kept] = blocks[row].rows[old:old + kept]
            at[row] += _W * new - lo[row]
            blocks[row] = legs
            lo[row] = _W * new
            hi[row] = _W * (new + n)


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


def _blocks(trajectories: Iterable[Trajectory]) -> list[tuple]:
    """``(fleet, rows, places)``: up to ``BLOCK`` of one fleet's rows in
    ``trajectories``, and their places; a fleet's ``values()`` as its rows."""
    fleet = getattr(trajectories, "_mapping", None)
    if type(trajectories) is ValuesView and isinstance(fleet, Fleet):
        groups = {fleet: (np.arange(len(fleet)),) * 2}
    else:
        groups = {}  # tables hash by identity
        for place, trajectory in enumerate(trajectories):
            rows, places = groups.setdefault(trajectory._fleet, ([], []))
            rows.append(trajectory._row)
            places.append(place)
    return [
        (fleet, np.array(rows[i:i + BLOCK]), np.array(places[i:i + BLOCK], np.intp))
        for fleet, (rows, places) in groups.items()
        for i in range(0, len(rows), BLOCK)
    ]


def _stacked(fleet: Fleet, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(legs, lo, hi, at)``: one leg array over the rows' blocks — the
    block itself when they share one — and each row's first leg, one
    past its last and cursor leg in it."""
    blocks: dict[LegBlock, int] = {}
    refs = fleet._legs
    block = [blocks.setdefault(refs[row], len(blocks)) for row in rows.tolist()]
    lo, hi, at = (
        np.frombuffer(column, np.int64)[rows] // _W
        for column in (fleet._lo, fleet._hi, fleet._at)
    )
    if len(blocks) == 1:
        return next(iter(blocks)).rows, lo, hi, at
    arrays = [legs.rows for legs in blocks]
    sizes = [len(rows) for rows in arrays]
    base = (np.cumsum(sizes) - sizes)[block]
    return np.concatenate(arrays), lo + base, hi + base, at + base


def _covered(fleet: Fleet, rows: np.ndarray, t: float) -> tuple[np.ndarray, ...]:
    """:func:`_stacked`, once every row's legs run past ``t``."""
    stacked = _stacked(fleet, rows)
    legs, _, hi, _ = stacked
    short = rows[legs[hi - 1, _T1] <= t]
    if not short.size:
        return stacked
    fleet._extend(np.unique(short).tolist(), t)
    return _stacked(fleet, rows)


def exit_times_from_rects(
    trajectories: Iterable[Trajectory],
    rects: Sequence[Rect],
    t: float,
    horizon: float,
) -> list[float]:
    """:meth:`Trajectory.exit_time_from_rect` for many pairs, bit for bit.

    A columnar walk over the (active leg, rect) columns, a leg block's
    worth of a fleet's rows at a time: each step answers every row its
    leg decides — already outside, exit inside the leg, or the hop past
    the leg's end lands past ``horizon`` — with the same IEEE operations
    in the same order as the scalar walk, and moves the rest on to their
    next leg.  Each row's cursor ends where the scalar walk leaves it.
    """
    _check_horizon(horizon)
    n = len(rects)
    if t > horizon or not n:
        return [math.inf] * n
    if t < 0:
        raise ValueError(f"time must be non-negative: {t}")
    bounds = np.fromiter(
        (v for r in rects for v in (r.min_x, r.min_y, r.max_x, r.max_y)),
        np.float64, 4 * n,
    ).reshape(n, 4)
    out = np.empty(n)
    for fleet, rows, places in _blocks(trajectories):
        out[places] = _exit_times(fleet, rows, bounds[places], t, horizon)
    return out.tolist()


def _legs_at(legs, lo, at, t) -> np.ndarray:
    """``Trajectory._leg(t)``, row by row (``t`` a scalar or a column): from
    the cursor ``at``, or the first leg ``lo`` if that starts after ``t``."""
    leg = np.where(legs[at, 0] > t, lo, at)
    behind = legs[leg, _T1] < t
    while behind.any():
        leg[behind] += 1
        behind = legs[leg, _T1] < t
    return leg


def _exit_times(fleet, rows, bounds, t, horizon) -> np.ndarray:
    """:func:`exit_times_from_rects` for one block of a fleet's rows."""
    n = len(rows)
    legs, lo, _, at = _covered(fleet, rows, horizon)
    leg = _legs_at(legs, lo, at, t)
    last = leg.copy()
    min_x, min_y, max_x, max_y = bounds.T
    out = np.full(n, math.inf)
    live = np.arange(n)
    current = np.full(n, float(t))
    while live.size:
        start, end, x, y, vx, vy = legs[leg].T
        # ``Segment.position_at(current)``.
        dt = np.minimum(np.maximum(current, start), end) - start
        px = x + vx * dt
        py = y + vy * dt
        lx, ly, hx, hy = min_x[live], min_y[live], max_x[live], max_y[live]
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
        out[live[~inside]] = current[~inside]
        found = in_leg & (exit_at <= horizon)
        out[live[found]] = exit_at[found]
        last[live] = leg
        # The rest hop just past their leg's end, while within the horizon.
        hop = np.nextafter(np.maximum(end, current), math.inf)
        on = inside & ~in_leg & (hop <= horizon)
        live, leg, current = live[on], leg[on], hop[on]
        leg = _legs_at(legs, leg, leg, current)
    # Each cursor on the last leg its walk read.
    np.frombuffer(fleet._at, np.int64)[rows] = (
        np.frombuffer(fleet._lo, np.int64)[rows] + _W * (last - lo)
    )
    return out


def positions_at(
    trajectories: Iterable[Trajectory], t: float
) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Trajectory.position_at` for many trajectories, bit for bit,
    as coordinate columns ``(xs, ys)`` in their order, a leg block's
    worth of a fleet's rows at a time; each cursor ends where
    ``position_at`` leaves it."""
    if t < 0:
        raise ValueError(f"time must be non-negative: {t}")
    blocks = _blocks(trajectories)
    xs = np.empty(sum(len(rows) for _, rows, _ in blocks))
    ys = np.empty_like(xs)
    for fleet, rows, places in blocks:
        legs, lo, _, at = _covered(fleet, rows, t)
        leg = _legs_at(legs, lo, at, t)
        start, end, x, y, vx, vy = legs[leg].T
        dt = np.minimum(np.maximum(t, start), end) - start
        xs[places] = x + vx * dt
        ys[places] = y + vy * dt
        np.frombuffer(fleet._at, np.int64)[rows] = (
            np.frombuffer(fleet._lo, np.int64)[rows] + _W * (leg - lo)
        )
    return xs, ys


def total_distance_travelled(
    trajectories: Iterable[Trajectory], t0: float, t1: float
) -> float:
    """Path length covered between ``t0`` and ``t1``, summed over the
    trajectories in order, a leg block's worth of a fleet's rows at a
    time: step ``k`` adds every row's ``k``-th leg, so each row's sum
    runs in leg order, as :meth:`Trajectory.distance_travelled` (this,
    for one row) reads."""
    blocks = _blocks(trajectories)
    totals = np.zeros(sum(len(rows) for _, rows, _ in blocks))
    for fleet, rows, places in blocks if t1 > t0 else ():
        legs, lo, hi, _ = _covered(fleet, rows, t1)
        count = hi - lo
        for k in range(int(count.max())):
            live = np.flatnonzero(count > k)
            start, end, _, _, vx, vy = legs[lo[live] + k].T
            speed = np.fromiter(
                map(math.hypot, vx.tolist(), vy.tolist()), np.float64, live.size
            )
            overlap = np.minimum(end, t1) - np.maximum(start, t0)
            # A leg outside ``(t0, t1)`` adds an exact zero.
            totals[places[live]] += np.where(
                (end > t0) & (start < t1), speed * overlap, 0.0
            )
    return sum(map(float, totals))


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

    def build(self, oids: Iterable, horizon: float) -> Fleet:
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
        fleet = Fleet(self, oids)
        oids = fleet._oids
        space = self.space
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
            fleet._append(
                *_lay_out(steps, np.zeros(len(block), np.intp))
            )
        return fleet

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
        operation is the scalar leg's, in its order — the leg length's
        CPython ``math.hypot`` included, which NumPy's differs from in
        the last ulp.
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

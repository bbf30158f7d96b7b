"""The object index: safe regions bucketed by query-grid cell.

Every region the server grants lies inside one cell of the ``M x M``
grid it keeps for queries (Section 3.3): a query-free grant *is* the
cell, and every query-shaped region is clipped to it.  So the object
index needs no tree of its own — it hangs each region off the cell it
lies in, on the grid's own arithmetic, and Algorithm 2's best-first
browse walks cells outward from the query point instead of tree nodes
(docs/PERFORMANCE.md, "Algorithm 2 over cells").  The PRD and Q-index
baselines index their reported points the same way, as point regions.

An object's *home* is the cell of its region's centre, provided the
region lies inside that cell's closed rectangle.  Any other region —
a degraded object's reachability box, or a point one rounding step
outside the cell its coordinates truncate to — is kept in ``wide`` and
visited by every search.  Buckets and ``wide`` are insertion-ordered
dicts, so every iteration order is a function of the update history.

The index keeps no per-object dict of its own: each row of the table it
indexes (``rows``, a :class:`~repro.rows.Rows`) has its home — the
bucket or ``wide`` dict holding its region — in the index's ``_home``
column.  The server indexes its object table, PRD and Q-index their
fleet; an index made without a table keys its own.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable, Iterator

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import CellId, GridIndex
from repro.rows import GrowingRows, Rows

ObjectId = Hashable


class CellObjectIndex:
    """Safe regions bucketed by the cells of ``grid``; the object index."""

    def __init__(self, grid: GridIndex, rows: Rows | None = None) -> None:
        self._grid = grid
        # The grid's cell arithmetic, held locally for the per-report
        # home computation (``_home_of`` spells out ``cell_of`` and
        # ``cell_rect`` with the same float operations).
        self._x0 = grid.space.min_x
        self._y0 = grid.space.min_y
        self._w = grid._cell_w
        self._h = grid._cell_h
        self._hi = grid.m - 1
        self._ids = grid._cell_ids
        #: Buckets by cell: cell -> {oid: region}.  A bucket is kept once
        #: made, empty or not (at most ``M * M`` of them).
        self._cells: dict[CellId, dict[ObjectId, Rect]] = {}
        #: Regions that lie inside no single home cell.
        self.wide: dict[ObjectId, Rect] = {}
        #: The table whose rows are indexed (any other mapping is keyed
        #: as one); without one, the index adds and frees its own rows on
        #: insert and delete.
        self._owns = rows is None
        if rows is None:
            rows = GrowingRows()
        elif not isinstance(rows, Rows):
            rows = Rows(rows)
        self._rows = rows
        #: Row -> the dict holding its region (its home bucket, or
        #: ``wide``), ``None`` while the row is not indexed.
        self._home: list[dict | None] = [None] * len(self._rows)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _home_of(self, rect: Rect) -> CellId | None:
        """``cell_of(rect.center)`` if ``cell_rect`` of it holds ``rect``."""
        x0, y0, w, h, hi = self._x0, self._y0, self._w, self._h, self._hi
        i = int(((rect.min_x + rect.max_x) / 2.0 - x0) / w)
        j = int(((rect.min_y + rect.max_y) / 2.0 - y0) / h)
        if i < 0:
            i = 0
        elif i > hi:
            i = hi
        if j < 0:
            j = 0
        elif j > hi:
            j = hi
        if (
            x0 + i * w <= rect.min_x
            and rect.max_x <= x0 + (i + 1) * w
            and y0 + j * h <= rect.min_y
            and rect.max_y <= y0 + (j + 1) * h
        ):
            return self._ids[i][j]
        return None

    def _target(self, rect: Rect) -> dict[ObjectId, Rect]:
        """The dict ``rect`` belongs in: its home bucket, or ``wide``."""
        home = self._home_of(rect)
        if home is None:
            return self.wide
        bucket = self._cells.get(home)
        if bucket is None:
            bucket = self._cells[home] = {}
        return bucket

    def rect_of(self, oid: ObjectId) -> Rect:
        """Current region stored for ``oid`` (KeyError when absent)."""
        try:
            return self._home[self._rows._row(oid)][oid]
        except (ValueError, IndexError, TypeError):
            raise KeyError(oid) from None

    def insert(self, oid: ObjectId, rect: Rect) -> None:
        """Insert a new object.  Raises ``KeyError`` if already present."""
        self.load(((oid, rect),))

    def load(self, entries) -> None:
        """:meth:`insert` of every ``(oid, rect)`` of ``entries``, in order."""
        rows, home, target_of = self._rows, self._home, self._target
        add = rows.add if self._owns else rows._row
        for oid, rect in entries:
            try:
                row = add(oid)
            except ValueError:  # ``range.index``
                raise KeyError(f"object {oid!r} is not a row") from None
            if row >= len(home):
                home.extend([None] * (row + 1 - len(home)))
            elif home[row] is not None:
                raise KeyError(f"object {oid!r} already indexed")
            target = home[row] = target_of(rect)
            target[oid] = rect
            self._n += 1

    def delete(self, oid: ObjectId) -> None:
        """Remove an object.  Raises ``KeyError`` when absent."""
        try:
            row = self._rows._row(oid)
            bucket = self._home[row]
        except (ValueError, IndexError):  # ``range.index``, unindexed row
            raise KeyError(oid) from None
        if bucket is None:
            raise KeyError(f"object {oid!r} is not indexed")
        del bucket[oid]
        self._home[row] = None
        self._n -= 1
        if self._owns:
            self._rows.discard(oid)

    def update(self, oid: ObjectId, rect: Rect) -> None:
        """Move ``oid`` to a new region.  Raises ``KeyError`` when absent.

        A region that keeps its home (or stays wide) is patched in place,
        so the object keeps its position in the iteration order.
        """
        try:
            row = self._rows._row(oid)
            bucket = self._home[row]
        except (ValueError, IndexError):  # ``range.index``, unindexed row
            raise KeyError(oid) from None
        target = self._target(rect)
        if target is not bucket:
            if bucket is None:
                raise KeyError(f"object {oid!r} is not indexed")
            del bucket[oid]
            self._home[row] = target
        target[oid] = rect

    def search(self, rect: Rect) -> list[ObjectId]:
        """Ids of all objects whose region intersects ``rect``."""
        return [oid for oid, _ in self.search_entries(rect)]

    def search_entries(self, rect: Rect) -> Iterator[tuple[ObjectId, Rect]]:
        """Yield ``(oid, region)`` for every region intersecting ``rect``.

        Visits the cells whose closed rectangle meets ``rect``: the
        truncated index range, widened by one against rounding, then
        filtered exactly.  A resident lies inside its cell, so no cell
        outside that set can hold a match.
        """
        m = self._hi + 1
        lo_i, hi_i = _span(rect.min_x, rect.max_x, self._x0, self._w, m)
        lo_j, hi_j = _span(rect.min_y, rect.max_y, self._y0, self._h, m)
        cells = self._cells
        cell_rect = self._grid.cell_rect
        for i in range(lo_i, hi_i + 1):
            for j in range(lo_j, hi_j + 1):
                bucket = cells.get((i, j))
                if bucket and cell_rect((i, j)).intersects(rect):
                    for oid, region in bucket.items():
                        if region.intersects(rect):
                            yield oid, region
        for oid, region in self.wide.items():
            if region.intersects(rect):
                yield oid, region

    def nearest_iter(
        self,
        q: Point,
        exclude: Callable[[ObjectId], bool] | None = None,
    ) -> Iterator[tuple[ObjectId, Rect, float]]:
        """Incremental best-first nearest-neighbour iterator over cells.

        Yields ``(oid, region, d2)`` in key order ``(d2, oid)``, ``d2``
        the squared ``delta(q, region)`` (:mod:`repro.geometry.ties`), so
        the sequence depends on the regions alone, never on the order
        they were inserted in; ``exclude`` filters objects (reevaluation
        case 1).  One heap holds regions and cells: ``wide`` first, then
        the cell holding ``q`` keyed by its squared distance.  Expanding
        a cell pushes each resident's region, then each unseen
        4-neighbour.  A resident lies inside its cell, and along a
        straight row-then-column path back to ``q``'s cell cell distance
        never increases, so every cell is pushed before anything farther
        than it pops; at an equal distance a cell (``(d2, 0, cell)``)
        pops before any region (``(d2, 1, oid, region)``), so a resident
        it holds is ranked against the regions already pushed.  The
        start cell is the one whose closed rectangle holds ``q``
        (truncation can land one cell off on a boundary), which keeps
        that path monotone from its first step.
        """
        grid = self._grid
        cell_rect = grid.cell_rect
        m = grid.m
        heap = [
            (region.min_d2_to_point(q), 1, oid, region)
            for oid, region in self.wide.items()
            if exclude is None or not exclude(oid)
        ]
        heapq.heapify(heap)
        start = _start_cell(grid, q)
        heapq.heappush(heap, (cell_rect(start).min_d2_to_point(q), 0, start))
        seen = {start}
        # Residents not yet pushed: once every bucket is expanded, the
        # empty remainder of the grid needs no walk.
        unpushed = self._n - len(self.wide)
        cells = self._cells
        heappush = heapq.heappush
        heappop = heapq.heappop
        while heap:
            entry = heappop(heap)
            if entry[1]:
                yield entry[2], entry[3], entry[0]
                continue
            key = entry[2]
            bucket = cells.get(key)
            if bucket:
                unpushed -= len(bucket)
                for oid, resident in bucket.items():
                    if exclude is None or not exclude(oid):
                        heappush(
                            heap, (resident.min_d2_to_point(q), 1, oid, resident)
                        )
            if unpushed <= 0:
                continue
            i, j = key
            for cell in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if cell not in seen and 0 <= cell[0] < m and 0 <= cell[1] < m:
                    seen.add(cell)
                    heappush(heap, (cell_rect(cell).min_d2_to_point(q), 0, cell))

    def all_entries(self) -> Iterator[tuple[ObjectId, Rect]]:
        """Yield every ``(oid, region)`` pair: bucket by bucket, then ``wide``."""
        for bucket in self._cells.values():
            yield from bucket.items()
        yield from self.wide.items()

    def validate(self) -> None:
        """Check the home / wide invariant; raises ``AssertionError``."""
        grid = self._grid
        row_of, home = self._rows._row, self._home
        counted = len(self.wide)
        for cell, bucket in self._cells.items():
            for oid, region in bucket.items():
                assert home[row_of(oid)] is bucket, (
                    f"{oid!r} is listed in a bucket that is not its own"
                )
                assert grid.cell_of(region.center) == cell, (
                    f"{oid!r} is not bucketed at the cell of its centre"
                )
                assert grid.cell_rect(cell).contains_rect(region), (
                    f"region of {oid!r} leaves its home cell {cell}"
                )
            counted += len(bucket)
        for oid, region in self.wide.items():
            assert home[row_of(oid)] is self.wide, (
                f"{oid!r} is listed as wide but homed"
            )
            assert self._home_of(region) is None, (
                f"wide region of {oid!r} fits its home cell"
            )
        assert counted == self._n == len(home) - home.count(None), (
            "home column out of sync"
        )


def _span(lo: float, hi: float, origin: float, step: float, m: int) -> tuple[int, int]:
    """Cell index range covering ``[lo, hi]`` on one axis, widened by one.

    Comparisons come before ``int`` so infinite bounds clamp instead of
    overflowing.
    """
    a = (lo - origin) / step
    b = (hi - origin) / step
    first = 0 if a < 1.0 else min(int(a) - 1, m - 1)
    last = m - 1 if b >= m - 1 else max(int(b) + 1, 0)
    return first, last


def _start_cell(grid: GridIndex, q: Point) -> CellId:
    """The cell whose closed rectangle holds ``q`` (clamped to the grid)."""
    i, j = grid.cell_of(q)
    rect = grid.cell_rect((i, j))
    hi = grid.m - 1
    if q.x < rect.min_x and i > 0:
        i -= 1
    elif q.x > rect.max_x and i < hi:
        i += 1
    if q.y < rect.min_y and j > 0:
        j -= 1
    elif q.y > rect.max_y and j < hi:
        j += 1
    return (i, j)

"""Columnar position store: struct-of-arrays mirror of object positions.

``PositionStore`` keeps every monitored object's last reported position
in two parallel ``float64`` columns plus an id↔row map, maintained
incrementally by ``DatabaseServer`` on register / update / deregister.
The columns are backend-neutral (``array('d')`` from the stdlib);
NumPy consumers view them zero-copy via ``np.frombuffer`` when present.

Deletions swap the last row into the vacated slot, so the columns stay
dense and row order is a function of the exact register/deregister
history — deterministic, but *not* insertion order.  Kernels that need
a deterministic result order therefore sort by object id (or by
``(distance, row)`` with an id-stable candidate set), never by raw row.

Cell residency (docs/PERFORMANCE.md "Resident columns"): once bound to
a grid geometry via :meth:`PositionStore.bind_grid`, the store also
buckets every object into its grid cell — per-cell dense x/y/id
columns maintained by the same swap-remove discipline.  The resident
cell of an object is exactly ``GridIndex.cell_of`` of its stored
position (identical truncate-and-clamp arithmetic), so hot paths read
``cell_of(oid)`` as one dict probe instead of recomputing the cell
from coordinates.  Each bucket carries a membership *generation*,
bumped when an object enters or leaves the cell (in-place moves within
a cell do not bump it); a swap-remove that backfills a vacated row
counts on ``grid.cells.compactions``.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from repro.obs import NULL_REGISTRY

try:  # pragma: no cover — container always ships numpy
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


class CellBucket:
    """One grid cell's dense resident columns (see ``PositionStore``)."""

    __slots__ = ("xs", "ys", "ids", "rows", "generation")

    def __init__(self) -> None:
        self.xs = array("d")
        self.ys = array("d")
        self.ids: list = []
        #: id -> row within this bucket.
        self.rows: dict = {}
        #: Membership generation: bumped on every enter/leave.
        self.generation = 0

    def __len__(self) -> int:
        return len(self.ids)


class PositionStore:
    """Dense x/y columns with id↔row bookkeeping."""

    __slots__ = (
        "_xs", "_ys", "_ids", "_row_of",
        "_grid", "_cells", "_cell_id", "_m_compactions",
    )

    def __init__(self) -> None:
        self._xs = array("d")
        self._ys = array("d")
        self._ids: list = []
        self._row_of: dict = {}
        #: ``(min_x, min_y, cell_w, cell_h, m - 1)`` once bound, else None.
        self._grid: tuple | None = None
        #: cell -> :class:`CellBucket` (dense; absent cells are empty).
        self._cells: dict = {}
        #: oid -> resident cell id.
        self._cell_id: dict = {}
        self._m_compactions = NULL_REGISTRY.counter("grid.cells.compactions")

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, oid) -> bool:
        return oid in self._row_of

    def __iter__(self) -> Iterator:
        return iter(self._ids)

    # ------------------------------------------------------------------
    # Cell residency
    # ------------------------------------------------------------------
    def bind_grid(
        self,
        min_x: float,
        min_y: float,
        cell_w: float,
        cell_h: float,
        m: int,
        metrics=None,
    ) -> None:
        """Enable cell residency over an ``m x m`` grid geometry.

        The arithmetic mirrors ``GridIndex.cell_of`` exactly (truncate,
        then clamp to ``[0, m - 1]``), so the resident cell of every
        object equals the grid's cell of its stored position.  Already-
        stored rows are re-bucketed immediately.  Binding is idempotent
        in effect: rebinding with a different geometry rebuckets.
        """
        if m < 1:
            raise ValueError("grid resolution must be positive")
        registry = NULL_REGISTRY if metrics is None else metrics
        self._m_compactions = registry.counter("grid.cells.compactions")
        self._grid = (min_x, min_y, cell_w, cell_h, m - 1)
        self._cells = {}
        self._cell_id = {}
        for row, oid in enumerate(self._ids):
            self._enter_cell(
                oid, self._cell_for(self._xs[row], self._ys[row]),
                self._xs[row], self._ys[row],
            )

    def _cell_for(self, x: float, y: float) -> tuple:
        min_x, min_y, cell_w, cell_h, hi = self._grid
        i = int((x - min_x) / cell_w)
        j = int((y - min_y) / cell_h)
        if i < 0:
            i = 0
        elif i > hi:
            i = hi
        if j < 0:
            j = 0
        elif j > hi:
            j = hi
        return (i, j)

    def _enter_cell(self, oid, cell: tuple, x: float, y: float) -> None:
        self._cell_id[oid] = cell
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = CellBucket()
        bucket.rows[oid] = len(bucket.ids)
        bucket.ids.append(oid)
        bucket.xs.append(x)
        bucket.ys.append(y)
        bucket.generation += 1

    def _leave_cell(self, oid, cell: tuple) -> None:
        bucket = self._cells[cell]
        row = bucket.rows.pop(oid)
        last = len(bucket.ids) - 1
        if row != last:
            moved = bucket.ids[last]
            bucket.ids[row] = moved
            bucket.xs[row] = bucket.xs[last]
            bucket.ys[row] = bucket.ys[last]
            bucket.rows[moved] = row
            self._m_compactions.inc()
        del bucket.ids[last]
        del bucket.xs[last]
        del bucket.ys[last]
        bucket.generation += 1
        if not bucket.ids:
            del self._cells[cell]

    def cell_of(self, oid):
        """Resident cell of ``oid`` (``GridIndex.cell_of`` of its stored
        position), or ``None`` when absent or the store is unbound."""
        return self._cell_id.get(oid)

    def cell_generation(self, cell: tuple) -> int:
        """Membership generation of ``cell``'s bucket (0 until first used)."""
        bucket = self._cells.get(cell)
        return bucket.generation if bucket is not None else 0

    def cell_ids(self, cell: tuple) -> Sequence:
        """Resident object ids of ``cell`` in row order (do not mutate)."""
        bucket = self._cells.get(cell)
        return bucket.ids if bucket is not None else ()

    def cell_columns(self, cell: tuple):
        """``(xs, ys, ids)`` resident columns of ``cell``, zero-copy.

        NumPy views over the live bucket buffers when available (consume
        before the next mutation), stdlib arrays otherwise; empty cells
        return empty columns.
        """
        bucket = self._cells.get(cell)
        if bucket is None:
            return array("d"), array("d"), []
        if _np is not None and bucket.ids:
            return (
                _np.frombuffer(bucket.xs, dtype=_np.float64),
                _np.frombuffer(bucket.ys, dtype=_np.float64),
                bucket.ids,
            )
        return bucket.xs, bucket.ys, bucket.ids

    def resident_cells(self) -> Sequence:
        """The non-empty cells (arbitrary order — sort before iterating
        when determinism matters)."""
        return list(self._cells)

    def cell_occupancy(self) -> dict:
        """Resident object count per cell — the occupancy-skew input
        for profiling and the shard-rebalance signal."""
        return {
            cell: len(bucket.ids) for cell, bucket in self._cells.items()
        }

    def set(self, oid, p) -> None:
        """Insert ``oid`` at ``p``, or move it if already stored."""
        x = p.x
        y = p.y
        row = self._row_of.get(oid)
        if row is None:
            self._row_of[oid] = len(self._ids)
            self._ids.append(oid)
            self._xs.append(x)
            self._ys.append(y)
        else:
            self._xs[row] = x
            self._ys[row] = y
        if self._grid is not None:
            cell = self._cell_for(x, y)
            held = self._cell_id.get(oid)
            if held == cell:
                bucket = self._cells[cell]
                brow = bucket.rows[oid]
                bucket.xs[brow] = x
                bucket.ys[brow] = y
            else:
                if held is not None:
                    self._leave_cell(oid, held)
                self._enter_cell(oid, cell, x, y)

    def move(self, oid, x, y, cell) -> None:
        """:meth:`set` with the target cell precomputed by the caller.

        ``cell`` must equal the bound grid's cell of ``(x, y)`` — bulk
        callers derive it columnarly once per tick (``Kernels.cells_of``
        mirrors ``GridIndex.cell_of``), which skips the per-report
        ``_cell_for`` recomputation here.
        """
        row = self._row_of.get(oid)
        if row is None:
            self._row_of[oid] = len(self._ids)
            self._ids.append(oid)
            self._xs.append(x)
            self._ys.append(y)
        else:
            self._xs[row] = x
            self._ys[row] = y
        if self._grid is None:
            return
        held = self._cell_id.get(oid)
        if held == cell:
            bucket = self._cells[cell]
            brow = bucket.rows[oid]
            bucket.xs[brow] = x
            bucket.ys[brow] = y
        else:
            if held is not None:
                self._leave_cell(oid, held)
            self._enter_cell(oid, cell, x, y)

    def load(self, oids: Sequence, points: Sequence, cells: Sequence) -> None:
        """Insert many objects at once: one :meth:`move` per row, in order.

        The start-up path (``DatabaseServer.bootstrap``).  Every id must
        be absent from the store and distinct (the caller has checked);
        ``cells`` are the rows' grid cells from one columnar pass
        (``GridIndex.cells_of_points``).  Rows, residency, bucket order
        and generations end exactly as ``len(oids)`` ``set`` calls would
        leave them (tests/test_bootstrap.py pins the equality).
        """
        xs = array("d", [p.x for p in points])
        ys = array("d", [p.y for p in points])
        base = len(self._ids)
        self._row_of.update(zip(oids, range(base, base + len(oids))))
        self._ids.extend(oids)
        self._xs.extend(xs)
        self._ys.extend(ys)
        if self._grid is None:
            return
        enter_cell = self._enter_cell
        for oid, cell, x, y in zip(oids, cells, xs, ys):
            enter_cell(oid, cell, x, y)

    def discard(self, oid) -> None:
        """Remove ``oid`` (no-op if absent) via swap-remove."""
        row = self._row_of.pop(oid, None)
        if row is None:
            return
        last = len(self._ids) - 1
        if row != last:
            moved = self._ids[last]
            self._ids[row] = moved
            self._xs[row] = self._xs[last]
            self._ys[row] = self._ys[last]
            self._row_of[moved] = row
        del self._ids[last]
        del self._xs[last]
        del self._ys[last]
        held = self._cell_id.pop(oid, None)
        if held is not None:
            self._leave_cell(oid, held)

    def get(self, oid):
        """The stored ``(x, y)`` of ``oid``, or ``None`` if absent."""
        row = self._row_of.get(oid)
        if row is None:
            return None
        return (self._xs[row], self._ys[row])

    @property
    def ids(self) -> Sequence:
        """Object ids in row order (do not mutate)."""
        return self._ids

    def columns(self):
        """``(xs, ys)`` columns in row order.

        NumPy views when available (zero-copy over the live buffers —
        consume before the next mutation), stdlib arrays otherwise.
        """
        if _np is not None and len(self._ids) > 0:
            return (
                _np.frombuffer(self._xs, dtype=_np.float64),
                _np.frombuffer(self._ys, dtype=_np.float64),
            )
        return self._xs, self._ys

    def approximate_size_bytes(self) -> int:
        """Rough resident size of the columns and maps."""
        n = len(self._ids)
        # Two float64 columns, the id list, and the id→row dict entries.
        total = 16 * n + 8 * n + 72 * n
        if self._grid is not None:
            # Cell residency doubles the columns (per-cell mirrors) and
            # adds the id→cell and per-bucket row maps.
            total += 16 * n + 8 * n + 72 * n + 72 * n
            total += 64 * len(self._cells)
        return total


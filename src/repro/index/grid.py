"""The grid-based in-memory query index (Section 3.3 of the paper).

The workspace is partitioned into ``M x M`` uniform cells.  Each cell's
bucket holds the queries whose quarantine area overlaps the cell.  Upon a
location update from point ``p_lst`` to ``p``, only the queries in the two
buckets containing those points can be affected.  The same buckets give the
*relevant queries* when computing an object's safe region (Section 5).

Hot-path acceleration (docs/PERFORMANCE.md): every cell carries a
*generation* counter, bumped whenever a query registers into or leaves the
cell.  Lookups are served from a per-cell cache — the bucket frozen into a
frozenset plus the deterministically sorted relevant-query tuple the
location manager consumes — validated against the generation, so the
common no-churn lookup costs two dict probes instead of a set copy and a
sort.  The generations are also the server's invalidation signal for its
safe-region certificate (``ObjectState.sr_cert``, the object table's
``cert_gen`` column).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol, Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.obs import COUNT_BUCKETS, NULL_EVENT_LOG, NULL_REGISTRY

CellId = tuple[int, int]

_EMPTY_BUCKET: frozenset = frozenset()
_EMPTY_SORTED: tuple = ()


class GridIndexable(Protocol):
    """What the grid needs from a query: precise quarantine overlap tests."""

    def quarantine_bounding_rect(self) -> Rect:
        """Bounding rectangle of the quarantine area."""
        ...

    def quarantine_overlaps(self, rect: Rect) -> bool:
        """Whether the quarantine area intersects ``rect``."""
        ...

    def __hash__(self) -> int: ...


class GridIndex:
    """A sparse ``M x M`` uniform grid over registered queries."""

    def __init__(
        self,
        m: int,
        space: Rect | None = None,
        metrics=None,
        events=None,
    ) -> None:
        if m < 1:
            raise ValueError("grid resolution must be positive")
        self.m = m
        self.space = space if space is not None else Rect(0.0, 0.0, 1.0, 1.0)
        if self.space.is_degenerate:
            raise ValueError("grid space must have positive area")
        self._cell_w = self.space.width / m
        self._cell_h = self.space.height / m
        #: Interned cell ids: ``_cell_ids[i][j] is (i, j)``, so every
        #: object holding its cell shares one tuple per cell.
        self._cell_ids = tuple(
            tuple((i, j) for j in range(m)) for i in range(m)
        )
        #: The same ids by flat cell number ``i * m + j``.
        self._flat_ids = tuple(cell for row in self._cell_ids for cell in row)
        self._buckets: dict[CellId, set] = {}
        self._cells_of: dict[Hashable, frozenset[CellId]] = {}
        #: Per-cell membership generation; bumped whenever a query starts
        #: or stops overlapping the cell.  Absent cells are generation 0.
        self._generations: dict[CellId, int] = {}
        #: Per-cell lookup cache: cell -> (generation, frozenset bucket,
        #: relevant-query tuple sorted by query_id).  Entries are validated
        #: lazily against the cell generation.
        self._cache: dict[CellId, tuple[int, frozenset, tuple]] = {}
        #: Interned cell rectangles, filled on first use.
        self._cell_rects: dict[CellId, Rect] = {}
        self._total_slots = 0
        self.events = NULL_EVENT_LOG if events is None else events
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self._m_lookups = self.metrics.counter("grid.lookups")
        self._m_hits = self.metrics.counter("grid.cache.hits")
        self._m_misses = self.metrics.counter("grid.cache.misses")
        self._m_candidates = self.metrics.histogram(
            "grid.candidates", COUNT_BUCKETS
        )
        self._m_cell_scans = self.metrics.histogram(
            "grid.covered_cells", COUNT_BUCKETS
        )
        self._g_occupied = self.metrics.gauge("grid.occupied_cells")
        self._g_occ_mean = self.metrics.gauge("grid.cell_occupancy.mean")
        self._g_occ_peak = self.metrics.gauge("grid.cell_occupancy.peak")
        self._g_cells_indexed = self.metrics.gauge("grid.cells_indexed")
        self._occ_peak = 0  # watermark backing the peak gauge

    def __len__(self) -> int:
        return len(self._cells_of)

    def __contains__(self, query) -> bool:
        return query in self._cells_of

    # ------------------------------------------------------------------
    # Cell arithmetic
    # ------------------------------------------------------------------
    def cell_of(self, p: Point) -> CellId:
        """The (column, row) cell containing ``p`` (clamped to the space).

        The id is interned: two points in one cell get the same object.
        """
        i = int((p.x - self.space.min_x) / self._cell_w)
        j = int((p.y - self.space.min_y) / self._cell_h)
        hi = self.m - 1
        if i < 0:
            i = 0
        elif i > hi:
            i = hi
        if j < 0:
            j = 0
        elif j > hi:
            j = hi
        return self._cell_ids[i][j]

    def cell_rect(self, cell: CellId) -> Rect:
        """The rectangle covered by ``cell`` (interned on first use)."""
        rect = self._cell_rects.get(cell)
        if rect is not None:
            return rect
        i, j = cell
        if not (0 <= i < self.m and 0 <= j < self.m):
            raise IndexError(f"cell {cell} outside {self.m}x{self.m} grid")
        rect = Rect(
            self.space.min_x + i * self._cell_w,
            self.space.min_y + j * self._cell_h,
            self.space.min_x + (i + 1) * self._cell_w,
            self.space.min_y + (j + 1) * self._cell_h,
        )
        self._cell_rects[cell] = rect
        return rect

    def cell_rect_of_point(self, p: Point) -> Rect:
        """The rectangle of the cell containing ``p``."""
        return self.cell_rect(self.cell_of(p))

    def cells_of_points(self, points: list[Point]) -> list[CellId]:
        """Batch :meth:`cell_of` over a list of points, interned alike."""
        return self.cells_of_xy([p.x for p in points], [p.y for p in points])

    def cells_of_xy(self, xs: Sequence[float], ys: Sequence[float]) -> list[CellId]:
        """Batch :meth:`cell_of` over coordinate columns, interned alike."""
        return self.cells_of_flat(self.flat_cells_of_xy(xs, ys))

    def cells_of_flat(self, flat: np.ndarray) -> list[CellId]:
        """The interned ids of flat cell numbers ``i * m + j``."""
        return list(map(self._flat_ids.__getitem__, flat.tolist()))

    def flat_cells_of_xy(self, xs, ys) -> np.ndarray:
        """:meth:`cells_of_xy` as flat cell numbers: one array pass that
        truncates toward zero (``astype`` as ``int()``) and clamps
        exactly like :meth:`cell_of`."""
        ci, cj = self._indices_of_xy(xs, ys)
        return ci * self.m + cj

    def _indices_of_xy(self, xs, ys) -> tuple[np.ndarray, np.ndarray]:
        m = self.m
        i = (np.asarray(xs, dtype=np.float64) - self.space.min_x) / self._cell_w
        j = (np.asarray(ys, dtype=np.float64) - self.space.min_y) / self._cell_h
        ci = np.minimum(np.maximum(i.astype(np.int64), 0), m - 1)
        cj = np.minimum(np.maximum(j.astype(np.int64), 0), m - 1)
        return ci, cj

    def cells_hold_xy(self, xs, ys) -> np.ndarray:
        """Per point of the coordinate columns, whether the closed
        :meth:`cell_rect` of its cell (:meth:`cells_of_xy`) holds it —
        the same bounds, bit for bit.  False only for a point truncation
        puts a rounding step outside its cell."""
        ci, cj = self._indices_of_xy(xs, ys)
        x0, y0 = self.space.min_x, self.space.min_y
        w, h = self._cell_w, self._cell_h
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        return (
            (x0 + ci * w <= xs) & (xs <= x0 + (ci + 1) * w)
            & (y0 + cj * h <= ys) & (ys <= y0 + (cj + 1) * h)
        )

    def cells_overlapping(self, rect: Rect) -> Iterable[CellId]:
        """All cell ids whose rectangle intersects ``rect``."""
        lo_i = int((rect.min_x - self.space.min_x) / self._cell_w)
        hi_i = int((rect.max_x - self.space.min_x) / self._cell_w)
        lo_j = int((rect.min_y - self.space.min_y) / self._cell_h)
        hi_j = int((rect.max_y - self.space.min_y) / self._cell_h)
        lo_i = min(max(lo_i, 0), self.m - 1)
        hi_i = min(max(hi_i, 0), self.m - 1)
        lo_j = min(max(lo_j, 0), self.m - 1)
        hi_j = min(max(hi_j, 0), self.m - 1)
        for i in range(lo_i, hi_i + 1):
            for j in range(lo_j, hi_j + 1):
                yield (i, j)

    # ------------------------------------------------------------------
    # Generations
    # ------------------------------------------------------------------
    def cell_generation(self, cell: CellId) -> int:
        """Membership generation of ``cell`` (0 until first touched).

        The generation advances exactly when a query starts or stops
        overlapping the cell, so ``(cell, generation)`` identifies one
        immutable snapshot of the cell's relevant-query set.
        """
        return self._generations.get(cell, 0)

    def has_queries_in_cell(self, cell: CellId) -> bool:
        """Whether any query's quarantine area overlaps ``cell`` (O(1))."""
        return cell in self._buckets

    def flat_has_queries(self) -> np.ndarray:
        """:meth:`has_queries_in_cell` of every flat cell number, as one
        boolean array."""
        queried = np.zeros(self.m * self.m, dtype=bool)
        queried[[i * self.m + j for i, j in self._buckets]] = True
        return queried

    def _bump(self, cells: Iterable[CellId]) -> None:
        generations = self._generations
        emit = self.events.enabled
        for cell in cells:
            generation = generations.get(cell, 0) + 1
            generations[cell] = generation
            if emit:
                # Each bump invalidates the cell's cached views and any
                # lazy safe-region certificate stamped with an older
                # generation (docs/PERFORMANCE.md).
                self.events.emit(
                    "cache_invalidation",
                    cell=list(cell), generation=generation,
                )

    def _refresh_occupancy(self) -> None:
        occupied = len(self._buckets)
        self._g_occupied.set(occupied)
        mean = self._total_slots / occupied if occupied else 0.0
        self._g_occ_mean.set(mean)
        # Total (query, cell) slots — the index's logical size.
        self._g_cells_indexed.set(self._total_slots)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def insert(self, query: GridIndexable) -> None:
        """Register a query under every cell its quarantine area overlaps."""
        if query in self._cells_of:
            raise KeyError(f"query {query!r} already registered")
        cells = self._covered_cells(query)
        peak = 0
        for cell in cells:
            bucket = self._buckets.setdefault(cell, set())
            bucket.add(query)
            if len(bucket) > peak:
                peak = len(bucket)
        self._cells_of[query] = cells
        self._bump(cells)
        self._total_slots += len(cells)
        self._refresh_occupancy()
        if peak > self._occ_peak:
            self._occ_peak = peak
            self._g_occ_peak.set(peak)

    def remove(self, query: GridIndexable) -> None:
        """Deregister a query.  Raises ``KeyError`` when absent."""
        cells = self._cells_of.pop(query)
        for cell in cells:
            bucket = self._buckets[cell]
            bucket.discard(query)
            if not bucket:
                del self._buckets[cell]
        self._bump(cells)
        self._total_slots -= len(cells)
        self._refresh_occupancy()

    def update(self, query: GridIndexable) -> None:
        """Refresh a query's buckets after its quarantine area changed."""
        old = self._cells_of.get(query)
        if old is None:
            raise KeyError(f"query {query!r} not registered")
        new = self._covered_cells(query)
        if new == old:
            return
        left = old - new
        entered = new - old
        for cell in left:
            bucket = self._buckets[cell]
            bucket.discard(query)
            if not bucket:
                del self._buckets[cell]
        peak = 0
        for cell in entered:
            bucket = self._buckets.setdefault(cell, set())
            bucket.add(query)
            if len(bucket) > peak:
                peak = len(bucket)
        self._cells_of[query] = new
        self._bump(left)
        self._bump(entered)
        self._total_slots += len(new) - len(old)
        self._refresh_occupancy()
        if peak > self._occ_peak:
            self._occ_peak = peak
            self._g_occ_peak.set(peak)

    def _covered_cells(self, query: GridIndexable) -> frozenset[CellId]:
        bounding = query.quarantine_bounding_rect()
        covered = frozenset(
            cell
            for cell in self.cells_overlapping(bounding)
            if query.quarantine_overlaps(self.cell_rect(cell))
        )
        self._m_cell_scans.observe(len(covered))
        return covered

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _cached_views(self, cell: CellId, bucket: set) -> tuple[frozenset, tuple]:
        """Generation-validated (frozenset, sorted tuple) views of a bucket.

        The sorted tuple is ordered by ``query_id`` — exactly the order
        the server's location manager iterates relevant queries in, so a
        cache hit removes both the set copy and the sort from the hot
        path.
        """
        generation = self._generations.get(cell, 0)
        cached = self._cache.get(cell)
        if cached is not None and cached[0] == generation:
            self._m_hits.inc()
            return cached[1], cached[2]
        self._m_misses.inc()
        frozen = frozenset(bucket)
        ordered = tuple(sorted(bucket, key=_query_order))
        self._cache[cell] = (generation, frozen, ordered)
        return frozen, ordered

    def queries_in_cell(self, cell: CellId) -> frozenset:
        """Queries whose quarantine area overlaps ``cell``."""
        bucket = self._buckets.get(cell)
        if bucket is None:
            return _EMPTY_BUCKET
        return self._cached_views(cell, bucket)[0]

    def queries_at(self, p: Point) -> frozenset:
        """Queries whose quarantine area overlaps the cell containing ``p``.

        These are the *relevant queries* of the paper for an object at
        ``p`` — candidates for being affected by an update at ``p`` and the
        only queries that can constrain ``p``'s safe region.
        """
        return self.queries_in_cell(self.cell_of(p))

    def relevant_queries(self, cell: CellId) -> tuple:
        """The cell's relevant queries sorted by ``query_id``.

        Served from the generation-stamped per-cell cache.
        """
        bucket = self._buckets.get(cell)
        if bucket is None:
            return _EMPTY_SORTED
        return self._cached_views(cell, bucket)[1]

    def candidate_queries(self, p: Point, p_lst: Point | None) -> frozenset:
        """Queries to check on an update from ``p_lst`` to ``p`` (Section 3.3)."""
        if p_lst is None:
            candidates = self.queries_at(p)
        else:
            cell_new = self.cell_of(p)
            cell_old = self.cell_of(p_lst)
            if cell_new == cell_old:
                candidates = self.queries_in_cell(cell_new)
            else:
                candidates = (
                    self.queries_in_cell(cell_new)
                    | self.queries_in_cell(cell_old)
                )
        self._m_lookups.inc()
        self._m_candidates.observe(len(candidates))
        return candidates

    def candidate_queries_ordered(self, p: Point, p_lst: Point | None) -> tuple:
        """:meth:`candidate_queries` as a ``query_id``-sorted tuple.

        Exactly the set ``candidate_queries`` returns, in exactly the
        order ``sorted(candidates, key=lambda q: q.query_id)`` produces —
        but served by merging the two cells' cached ordered views instead
        of re-sorting per update.  Metrics (``grid.lookups`` and the
        candidate-size histogram) match ``candidate_queries`` call for
        call, so the two entry points are interchangeable.
        """
        if p_lst is None:
            ordered = self.relevant_queries(self.cell_of(p))
        else:
            cell_new = self.cell_of(p)
            cell_old = self.cell_of(p_lst)
            if cell_new == cell_old:
                ordered = self.relevant_queries(cell_new)
            else:
                a = self.relevant_queries(cell_new)
                b = self.relevant_queries(cell_old)
                if not a:
                    ordered = b
                elif not b:
                    ordered = a
                else:
                    ordered = _merge_ordered(a, b)
        self._m_lookups.inc()
        self._m_candidates.observe(len(ordered))
        return ordered

    def all_queries(self) -> frozenset:
        """Every registered query."""
        return frozenset(self._cells_of)

    def approximate_size_bytes(self) -> int:
        """Rough in-memory footprint of the index (pointer accounting).

        Mirrors the paper's report of the query-index size (≈ 300 KB at
        W = 1000, M = 50): each bucket slot is counted as one 8-byte
        pointer plus fixed per-cell overhead.  The acceleration-layer
        structures are included too — interned cell rectangles, the
        generation map, and the per-cell cached views (a frozenset and a
        sorted tuple over the bucket) — so the memory gauge reflects what
        the cache actually holds rather than under-reporting it.
        """
        pointer_bytes = 8
        per_cell_overhead = 64
        rect_bytes = 80  # Rect object: 4 float slots + object header
        generation_entry_bytes = 32  # dict slot + small-int value
        total = 0
        for bucket in self._buckets.values():
            total += per_cell_overhead + pointer_bytes * len(bucket)
        total += rect_bytes * len(self._cell_rects)
        total += generation_entry_bytes * len(self._generations)
        for _, frozen, ordered in self._cache.values():
            # Cache entry: dict slot + 3-tuple, a frozenset and a tuple
            # view each holding one pointer per member.
            total += per_cell_overhead + pointer_bytes * (
                len(frozen) + len(ordered)
            )
        return total


def _query_order(query) -> str:
    return query.query_id


def _merge_ordered(a: tuple, b: tuple) -> tuple:
    """Deduplicating two-pointer merge of ``query_id``-sorted tuples."""
    out: list = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        qa, qb = a[i], b[j]
        if qa is qb:
            out.append(qa)
            i += 1
            j += 1
        elif qa.query_id <= qb.query_id:
            out.append(qa)
            i += 1
        else:
            out.append(qb)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)

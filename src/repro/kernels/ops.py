"""Columnar geometry kernels for the evaluation hot path.

Every kernel exists twice: a NumPy batch implementation and a pure-Python
scalar fallback.  The two are **bit-identical by construction** — the
NumPy path performs the same floating-point operations in the same order
per element as the scalar path (``dx*dx + dy*dy``, explicit ``min``/
``max`` compositions, sequential ``cumsum`` row sums instead of pairwise
reductions, and never ``hypot``, whose result CPython and NumPy are free
to compute differently).  This lets the server swap backends via
``ServerConfig.kernel_backend`` without perturbing a single result,
message, or counter; ``tests/test_kernels_properties.py`` cross-checks
the two paths on random columns including rect-edge and distance-tie
inputs, and ``tests/test_kernel_equivalence.py`` replays full monitoring
streams under both backends.

FP-determinism rules for new kernels (see docs/PERFORMANCE.md):

* square with ``v * v``, never ``v ** 2`` or ``np.square`` mixed with
  scalar ``pow``;
* sum sequentially (``np.cumsum(...)[..., -1]``) when the scalar path
  sums left to right — ``np.sum`` uses pairwise reduction;
* replicate Python's ``min``/``max`` tie behaviour (first argument wins
  on equality) — ``np.minimum``/``np.maximum`` match it, but
  ``max(v, 0.0)`` must become ``np.where(v >= 0.0, v, 0.0)`` to keep
  the sign of a negative zero;
* match truncation: ``int(f)`` truncates toward zero, as does
  ``ndarray.astype(int64)`` for the values a grid ever sees;
* convert every NumPy output back to Python scalars (``tolist()``) so
  downstream geometry never mixes ``np.float64`` into snapshots.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.obs import NULL_EVENT_LOG, NULL_REGISTRY

try:  # pragma: no cover — exercised implicitly by backend resolution
    import numpy as _np

    HAS_NUMPY = True
except ImportError:  # pragma: no cover — container always ships numpy
    _np = None
    HAS_NUMPY = False

#: Recognised values of ``ServerConfig.kernel_backend``.
KERNEL_BACKENDS = ("numpy", "python")

def resolve_backend(requested: str) -> str:
    """Map a requested backend to the one that will actually run.

    ``"numpy"`` silently degrades to ``"python"`` when NumPy is absent —
    the fallback is bit-identical, so nothing but speed changes.
    """
    if requested not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {requested!r}; choose from {KERNEL_BACKENDS}"
        )
    if requested == "numpy" and not HAS_NUMPY:
        return "python"
    return requested


class Kernels:
    """Batch geometry kernels with a selected backend.

    ``min_rows`` is the batch-size cutoff below which the NumPy path is
    not worth its constant overhead; smaller inputs run the scalar
    fallback (identical results either way).  Counters:

    * ``kernels.batch_calls``    — invocations served by the NumPy path;
    * ``kernels.rows_scanned``   — rows processed by the NumPy path;
    * ``kernels.fallback_calls`` — invocations served by the scalar path
      (explicit ``python`` backend, missing NumPy, or below-cutoff);
    * ``kernels.fallback_rows``  — rows processed by the scalar path.
      The ratio ``fallback_rows / (rows_scanned + fallback_rows)`` is the
      number that matters for batching health: many tiny fallback calls
      can be negligible by rows, and one huge fallback call can dominate.
    """

    __slots__ = (
        "backend", "min_rows", "_np", "_events",
        "_batch_calls", "_rows_scanned", "_fallback_calls",
        "_fallback_rows",
    )

    def __init__(
        self, backend: str = "numpy", metrics=None, min_rows: int = 8,
        events=None,
    ) -> None:
        if min_rows < 1:
            raise ValueError("min_rows must be positive")
        self.backend = resolve_backend(backend)
        self.min_rows = min_rows
        self._np = _np if self.backend == "numpy" else None
        registry = NULL_REGISTRY if metrics is None else metrics
        self._events = NULL_EVENT_LOG if events is None else events
        self._batch_calls = registry.counter("kernels.batch_calls")
        self._rows_scanned = registry.counter("kernels.rows_scanned")
        self._fallback_calls = registry.counter("kernels.fallback_calls")
        self._fallback_rows = registry.counter("kernels.fallback_rows")

    def _batch(self, n: int) -> bool:
        """Whether to take the NumPy path for an ``n``-row call.

        The cutoff is inclusive: a call with exactly ``min_rows`` rows
        takes the vectorized path (``n >= self.min_rows``), on both
        backends — pinned by ``test_min_rows_exact_cutoff_vectorises``.
        """
        if self._np is not None and n >= self.min_rows:
            self._batch_calls.inc()
            self._rows_scanned.inc(n)
            return True
        self._fallback_calls.inc()
        self._fallback_rows.inc(n)
        if self._events.enabled:
            self._events.emit(
                "kernel_fallback", rows=n, backend=self.backend,
                reason="below_cutoff" if self._np is not None else "no_numpy",
            )
        return False

    # ------------------------------------------------------------------
    # Point kernels
    # ------------------------------------------------------------------
    def points_in_rect(
        self, xs: Sequence[float], ys: Sequence[float], rect
    ) -> list[bool]:
        """Per-row mask: is ``(xs[i], ys[i])`` inside the closed ``rect``."""
        n = len(xs)
        if self._batch(n):
            np = self._np
            x = np.asarray(xs, dtype=np.float64)
            y = np.asarray(ys, dtype=np.float64)
            mask = (
                (x >= rect.min_x) & (x <= rect.max_x)
                & (y >= rect.min_y) & (y <= rect.max_y)
            )
            return mask.tolist()
        return [
            rect.min_x <= xs[i] <= rect.max_x
            and rect.min_y <= ys[i] <= rect.max_y
            for i in range(n)
        ]

    def squared_dists(
        self, xs: Sequence[float], ys: Sequence[float], qx: float, qy: float
    ) -> list[float]:
        """Per-row squared distance to ``(qx, qy)`` as ``dx*dx + dy*dy``."""
        n = len(xs)
        if self._batch(n):
            np = self._np
            dx = np.asarray(xs, dtype=np.float64) - qx
            dy = np.asarray(ys, dtype=np.float64) - qy
            return (dx * dx + dy * dy).tolist()
        out = []
        for i in range(n):
            dx = xs[i] - qx
            dy = ys[i] - qy
            out.append(dx * dx + dy * dy)
        return out

    def top_k_rows(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        qx: float,
        qy: float,
        k: int,
    ) -> list[int]:
        """Rows of the ``k`` nearest points, ordered by ``(d2, row)``.

        The row index breaks exact distance ties, so the selection is
        fully deterministic — unlike a bare ``argpartition``, whose
        boundary ties depend on the partitioning order.
        """
        n = len(xs)
        if k <= 0 or n == 0:
            return []
        k = min(k, n)
        if self._batch(n):
            np = self._np
            dx = np.asarray(xs, dtype=np.float64) - qx
            dy = np.asarray(ys, dtype=np.float64) - qy
            d2 = dx * dx + dy * dy
            if k < n:
                part = np.argpartition(d2, k - 1)
                threshold = d2[part[k - 1]]
                cand = np.flatnonzero(d2 <= threshold)
            else:
                cand = np.arange(n)
            order = cand[np.lexsort((cand, d2[cand]))]
            return order[:k].tolist()
        d2 = self.squared_dists(xs, ys, qx, qy)
        return heapq.nsmallest(k, range(n), key=lambda i: (d2[i], i))

    def cells_of(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        min_x: float,
        min_y: float,
        cell_w: float,
        cell_h: float,
        m: int,
    ) -> list[tuple[int, int]]:
        """Per-row grid cell ids, clamped exactly like ``GridIndex.cell_of``."""
        n = len(xs)
        if self._batch(n):
            np = self._np
            i = ((np.asarray(xs, dtype=np.float64) - min_x) / cell_w)
            j = ((np.asarray(ys, dtype=np.float64) - min_y) / cell_h)
            # astype truncates toward zero, matching int().
            ci = np.minimum(np.maximum(i.astype(np.int64), 0), m - 1)
            cj = np.minimum(np.maximum(j.astype(np.int64), 0), m - 1)
            return list(zip(ci.tolist(), cj.tolist()))
        out = []
        for r in range(n):
            i = int((xs[r] - min_x) / cell_w)
            j = int((ys[r] - min_y) / cell_h)
            out.append((min(max(i, 0), m - 1), min(max(j, 0), m - 1)))
        return out

    # ------------------------------------------------------------------
    # Rect-column kernels
    # ------------------------------------------------------------------
    def rects_intersecting(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        rect,
    ) -> list[bool]:
        """Per-row mask: does stored rect ``i`` intersect ``rect`` (closed)."""
        n = len(minxs)
        if self._batch(n):
            np = self._np
            mask = (
                (np.asarray(minxs, dtype=np.float64) <= rect.max_x)
                & (np.asarray(maxxs, dtype=np.float64) >= rect.min_x)
                & (np.asarray(minys, dtype=np.float64) <= rect.max_y)
                & (np.asarray(maxys, dtype=np.float64) >= rect.min_y)
            )
            return mask.tolist()
        return [
            minxs[i] <= rect.max_x
            and rect.min_x <= maxxs[i]
            and minys[i] <= rect.max_y
            and rect.min_y <= maxys[i]
            for i in range(n)
        ]

    def rects_contained_in(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        rect,
    ) -> list[bool]:
        """Per-row mask: is stored rect ``i`` fully inside ``rect``."""
        n = len(minxs)
        if self._batch(n):
            np = self._np
            mask = (
                (np.asarray(minxs, dtype=np.float64) >= rect.min_x)
                & (np.asarray(minys, dtype=np.float64) >= rect.min_y)
                & (np.asarray(maxxs, dtype=np.float64) <= rect.max_x)
                & (np.asarray(maxys, dtype=np.float64) <= rect.max_y)
            )
            return mask.tolist()
        return [
            rect.min_x <= minxs[i]
            and rect.min_y <= minys[i]
            and rect.max_x >= maxxs[i]
            and rect.max_y >= maxys[i]
            for i in range(n)
        ]

    def range_affected(
        self,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        p,
        p_lst,
    ) -> list[bool]:
        """Per-row ``RangeQuery.is_affected_by`` over query-rect columns.

        Row ``i`` is affected iff membership of ``p`` in rect ``i``
        differs from membership of ``p_lst`` (``p_lst is None`` counts as
        outside every rectangle).
        """
        n = len(minxs)
        if self._batch(n):
            np = self._np
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            inside_new = (
                (lox <= p.x) & (p.x <= hix) & (loy <= p.y) & (p.y <= hiy)
            )
            if p_lst is None:
                return inside_new.tolist()
            inside_old = (
                (lox <= p_lst.x) & (p_lst.x <= hix)
                & (loy <= p_lst.y) & (p_lst.y <= hiy)
            )
            return (inside_new != inside_old).tolist()
        out = []
        for i in range(n):
            inside_new = (
                minxs[i] <= p.x <= maxxs[i] and minys[i] <= p.y <= maxys[i]
            )
            inside_old = p_lst is not None and (
                minxs[i] <= p_lst.x <= maxxs[i]
                and minys[i] <= p_lst.y <= maxys[i]
            )
            out.append(inside_new != inside_old)
        return out

    def quadrant_corners(
        self,
        px: float,
        py: float,
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
        sx: float,
        sy: float,
        width: float,
        height: float,
    ) -> list[tuple[float, float]]:
        """Quadrant-local obstacle corners for the Section 5.3 staircase.

        Batch form of ``repro.core.batch._local_min_corner`` over obstacle
        columns: rows that cannot constrain the quadrant are dropped, the
        rest contribute ``(max(lx1, 0), max(ly1, 0))`` in input order.
        ``np.where(v >= 0.0, v, 0.0)`` replicates Python's
        ``max(v, 0.0)`` exactly, including for ``-0.0``.
        """
        n = len(minxs)
        if self._batch(n):
            np = self._np
            lox = np.asarray(minxs, dtype=np.float64)
            loy = np.asarray(minys, dtype=np.float64)
            hix = np.asarray(maxxs, dtype=np.float64)
            hiy = np.asarray(maxys, dtype=np.float64)
            if sx > 0:
                lx1, lx2 = lox - px, hix - px
            else:
                lx1, lx2 = px - hix, px - lox
            if sy > 0:
                ly1, ly2 = loy - py, hiy - py
            else:
                ly1, ly2 = py - hiy, py - loy
            keep = ~(
                (lx2 <= 0.0) | (ly2 <= 0.0) | (lx1 >= width) | (ly1 >= height)
            )
            cx = np.where(lx1 >= 0.0, lx1, 0.0)
            cy = np.where(ly1 >= 0.0, ly1, 0.0)
            return [
                (x, y)
                for k, x, y in zip(keep.tolist(), cx.tolist(), cy.tolist())
                if k
            ]
        out = []
        for i in range(n):
            if sx > 0:
                lx1, lx2 = minxs[i] - px, maxxs[i] - px
            else:
                lx1, lx2 = px - maxxs[i], px - minxs[i]
            if sy > 0:
                ly1, ly2 = minys[i] - py, maxys[i] - py
            else:
                ly1, ly2 = py - maxys[i], py - minys[i]
            if lx2 <= 0.0 or ly2 <= 0.0 or lx1 >= width or ly1 >= height:
                continue
            out.append((max(lx1, 0.0), max(ly1, 0.0)))
        return out

    # ------------------------------------------------------------------
    # Grouped kernels (one dispatch over many queries, query-id keyed)
    # ------------------------------------------------------------------
    def grouped_points_in_rects(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        minxs: Sequence[float],
        minys: Sequence[float],
        maxxs: Sequence[float],
        maxys: Sequence[float],
    ) -> list[list[bool]]:
        """Containment of every point against every query rect.

        One dispatch answers ``Q`` range queries over the same ``N``
        point columns; ``out[q][i]`` is ``points_in_rect`` of point ``i``
        against rect ``q``.  Counts ``Q * N`` rows.  Pure comparisons.
        """
        q = len(minxs)
        n = len(xs)
        if q == 0 or n == 0:
            return [[False] * n for _ in range(q)]
        if self._batch(q * n):
            np = self._np
            x = np.asarray(xs, dtype=np.float64)[None, :]
            y = np.asarray(ys, dtype=np.float64)[None, :]
            lox = np.asarray(minxs, dtype=np.float64)[:, None]
            loy = np.asarray(minys, dtype=np.float64)[:, None]
            hix = np.asarray(maxxs, dtype=np.float64)[:, None]
            hiy = np.asarray(maxys, dtype=np.float64)[:, None]
            mask = (x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy)
            return [row.tolist() for row in mask]
        return [
            [
                minxs[j] <= xs[i] <= maxxs[j]
                and minys[j] <= ys[i] <= maxys[j]
                for i in range(n)
            ]
            for j in range(q)
        ]

    def grouped_top_k(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        qxs: Sequence[float],
        qys: Sequence[float],
        ks: Sequence[int],
    ) -> list[list[int]]:
        """Segment-reduced :meth:`top_k_rows` for many centres at once.

        ``out[q]`` lists the rows of the ``ks[q]`` nearest points to
        ``(qxs[q], qys[q])`` ordered by ``(d2, row)`` — identical to a
        per-centre ``top_k_rows`` call.  The distance matrix uses the
        same elementwise ``dx*dx + dy*dy`` arithmetic, and a stable
        argsort reproduces the ``(d2, row)`` tie order exactly.  Counts
        ``Q * N`` rows.
        """
        q = len(qxs)
        n = len(xs)
        if q == 0:
            return []
        if n == 0:
            return [[] for _ in range(q)]
        if self._batch(q * n):
            np = self._np
            dx = np.asarray(xs, dtype=np.float64)[None, :] - np.asarray(
                qxs, dtype=np.float64
            )[:, None]
            dy = np.asarray(ys, dtype=np.float64)[None, :] - np.asarray(
                qys, dtype=np.float64
            )[:, None]
            d2 = dx * dx + dy * dy
            order = np.argsort(d2, axis=1, kind="stable")
            return [
                order[j, : min(ks[j], n)].tolist() if ks[j] > 0 else []
                for j in range(q)
            ]
        out = []
        for j in range(q):
            if ks[j] <= 0:
                out.append([])
                continue
            cx, cy = qxs[j], qys[j]
            d2 = []
            for i in range(n):
                dx = xs[i] - cx
                dy = ys[i] - cy
                d2.append(dx * dx + dy * dy)
            out.append(
                heapq.nsmallest(
                    min(ks[j], n), range(n), key=lambda i: (d2[i], i)
                )
            )
        return out

    # ------------------------------------------------------------------
    # Scalar-value helpers
    # ------------------------------------------------------------------
    def mask_leq(
        self, values: Sequence[float], bound: float
    ) -> list[bool]:
        """Per-row mask ``values[i] <= bound`` (comparison only, no FP risk)."""
        n = len(values)
        if self._batch(n):
            np = self._np
            return (np.asarray(values, dtype=np.float64) <= bound).tolist()
        return [values[i] <= bound for i in range(n)]


#: Shared default instance (NumPy when available, no metrics).
DEFAULT_KERNELS = Kernels()

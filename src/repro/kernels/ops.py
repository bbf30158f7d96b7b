"""Columnar geometry kernels for the evaluation hot path.

One form per op, scalar below ``MIN_ROWS``: a call with at least
``MIN_ROWS`` rows runs as a NumPy batch pass, a smaller one runs the
pure-Python scalar loop.  The two are **bit-identical by construction**
— the NumPy path performs the same floating-point operations in the
same order per element as the scalar path (``dx*dx + dy*dy``, explicit
``min``/``max`` compositions, sequential ``cumsum`` row sums instead of
pairwise reductions, and never ``hypot``, whose result CPython and NumPy
are free to compute differently).  The scalar loop is also the reference
the NumPy pass is checked against: ``tests/test_kernels_properties.py``
forces each side by patching ``MIN_ROWS`` and cross-checks the two on
random columns including rect-edge and distance-tie inputs, and
``tests/test_kernel_equivalence.py`` replays full monitoring streams
both ways.

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

import numpy as np

from repro.obs import NULL_EVENT_LOG, NULL_REGISTRY

#: Batch-size cutoff: a call with fewer rows runs the scalar loop, whose
#: constant cost is below NumPy's array set-up on tiny inputs.
#: Inclusive — a call with exactly ``MIN_ROWS`` rows vectorises.
MIN_ROWS = 8


class Kernels:
    """Batch geometry kernels with per-call counters.

    Counters:

    * ``kernels.batch_calls``    — invocations served by the NumPy path;
    * ``kernels.rows_scanned``   — rows processed by the NumPy path;
    * ``kernels.fallback_calls`` — invocations below ``MIN_ROWS``, served
      by the scalar path;
    * ``kernels.fallback_rows``  — rows processed by the scalar path.
      The ratio ``fallback_rows / (rows_scanned + fallback_rows)`` is the
      number that matters for batching health: many tiny fallback calls
      can be negligible by rows, and one huge fallback call can dominate.

    Each scalar call also emits a ``kernel_fallback`` event carrying its
    ``rows`` when the event log is enabled.
    """

    __slots__ = (
        "_events", "_batch_calls", "_rows_scanned", "_fallback_calls",
        "_fallback_rows",
    )

    def __init__(self, metrics=None, events=None) -> None:
        registry = NULL_REGISTRY if metrics is None else metrics
        self._events = NULL_EVENT_LOG if events is None else events
        self._batch_calls = registry.counter("kernels.batch_calls")
        self._rows_scanned = registry.counter("kernels.rows_scanned")
        self._fallback_calls = registry.counter("kernels.fallback_calls")
        self._fallback_rows = registry.counter("kernels.fallback_rows")

    def _batch(self, n: int) -> bool:
        """Whether to take the NumPy path for an ``n``-row call.

        The cutoff is inclusive (``n >= MIN_ROWS``) — pinned by
        ``test_min_rows_exact_cutoff_vectorises``.
        """
        if n >= MIN_ROWS:
            self._batch_calls.inc()
            self._rows_scanned.inc(n)
            return True
        self._fallback_calls.inc()
        self._fallback_rows.inc(n)
        if self._events.enabled:
            self._events.emit("kernel_fallback", rows=n)
        return False

    # ------------------------------------------------------------------
    # Point kernels
    # ------------------------------------------------------------------
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
        d2 = []
        for i in range(n):
            dx = xs[i] - qx
            dy = ys[i] - qy
            d2.append(dx * dx + dy * dy)
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
    ) -> list[int]:
        """Per-row flat cell numbers ``i * m + j``, the cell ``(i, j)``
        truncated and clamped exactly like ``GridIndex.cell_of``."""
        n = len(xs)
        if self._batch(n):
            i = ((np.asarray(xs, dtype=np.float64) - min_x) / cell_w)
            j = ((np.asarray(ys, dtype=np.float64) - min_y) / cell_h)
            # astype truncates toward zero, matching int().
            ci = np.minimum(np.maximum(i.astype(np.int64), 0), m - 1)
            cj = np.minimum(np.maximum(j.astype(np.int64), 0), m - 1)
            return (ci * m + cj).tolist()
        out = []
        for r in range(n):
            i = int((xs[r] - min_x) / cell_w)
            j = int((ys[r] - min_y) / cell_h)
            out.append(min(max(i, 0), m - 1) * m + min(max(j, 0), m - 1))
        return out

    # ------------------------------------------------------------------
    # Rect-column kernels
    # ------------------------------------------------------------------
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

"""Vectorized columnar kernels for the evaluation hot path.

Public surface:

* :class:`~repro.kernels.ops.Kernels` — batch geometry kernels with a
  NumPy backend and a bit-identical pure-Python fallback, selected by
  ``ServerConfig.kernel_backend``.
* :class:`~repro.kernels.store.PositionStore` — struct-of-arrays mirror
  of the monitored objects' last reported positions.
* :func:`~repro.kernels.ops.resolve_backend`, ``KERNEL_BACKENDS``,
  ``HAS_NUMPY`` — backend negotiation helpers.
"""

from repro.kernels.ops import (
    DEFAULT_KERNELS,
    HAS_NUMPY,
    KERNEL_BACKENDS,
    Kernels,
    resolve_backend,
)
from repro.kernels.store import PositionStore

__all__ = [
    "DEFAULT_KERNELS",
    "HAS_NUMPY",
    "KERNEL_BACKENDS",
    "Kernels",
    "PositionStore",
    "resolve_backend",
]

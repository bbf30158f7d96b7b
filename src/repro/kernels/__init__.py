"""Vectorized columnar kernels for the evaluation hot path.

Public surface:

* :class:`~repro.kernels.ops.Kernels` — batch geometry kernels with a
  NumPy backend and a bit-identical pure-Python fallback, selected by
  ``ServerConfig.kernel_backend``.
* :func:`~repro.kernels.ops.resolve_backend`, ``KERNEL_BACKENDS``,
  ``HAS_NUMPY`` — backend negotiation helpers.

The server keeps no columnar copy of object positions: an object's held
position and its grid cell live on its ``ObjectState``.
"""

from repro.kernels.ops import (
    DEFAULT_KERNELS,
    HAS_NUMPY,
    KERNEL_BACKENDS,
    Kernels,
    resolve_backend,
)

__all__ = [
    "DEFAULT_KERNELS",
    "HAS_NUMPY",
    "KERNEL_BACKENDS",
    "Kernels",
    "resolve_backend",
]

"""Vectorized columnar kernels for the evaluation hot path.

Public surface: :class:`~repro.kernels.ops.Kernels` — batch geometry
kernels that run as NumPy passes at ``ops.MIN_ROWS`` rows or more and as
bit-identical scalar loops below it.

The server keeps no second copy of object positions: an object's held
position and its grid cell are columns of its object table
(:class:`~repro.core.objects.Objects`).
"""

from repro.kernels.ops import Kernels

__all__ = ["Kernels"]

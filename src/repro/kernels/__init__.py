"""An alias kept only for the frozen harness in ``benchmarks/e2e/``.

``measure.py`` calls ``Kernels().top_k_rows`` and ``tracing.py`` reads
``GroundTruth.kernels``; both go with ``oracle.py`` at the re-baseline.
"""

from repro.geometry import ties


class Kernels:
    top_k_rows = staticmethod(ties.top_k_rows)

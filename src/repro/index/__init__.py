"""Spatial index substrates.

* :mod:`repro.index.cells` — the object index (Section 3.2): safe
  regions bucketed by the cells of the query grid, browsed cell by cell.
  The server, PRD and Q-index all run on it.
* :mod:`repro.index.grid` — the grid-based in-memory query index
  (Section 3.3).
* :mod:`repro.index.brute` — a brute-force reference index with the same
  API, the oracle the tests check the cell index against.
"""

from repro.index.brute import BruteForceIndex
from repro.index.cells import CellObjectIndex
from repro.index.grid import GridIndex

__all__ = ["CellObjectIndex", "GridIndex", "BruteForceIndex"]

"""Spatial index substrates.

* :mod:`repro.index.cells` — the object index (Section 3.2): safe
  regions bucketed by the cells of the query grid, browsed cell by cell.
  The server, PRD and Q-index all run on it.
* :mod:`repro.index.grid` — the grid-based in-memory query index
  (Section 3.3).
"""

from repro.index.cells import CellObjectIndex
from repro.index.grid import GridIndex

__all__ = ["CellObjectIndex", "GridIndex"]

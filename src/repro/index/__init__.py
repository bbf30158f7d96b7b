"""Spatial index substrates.

* :mod:`repro.index.cells` — the server's object index (Section 3.2): safe
  regions bucketed by the cells of the query grid, browsed cell by cell.
* :mod:`repro.index.grid` — the grid-based in-memory query index
  (Section 3.3).
* :mod:`repro.index.rstar` — a dynamic R*-tree (Beckmann et al., SIGMOD 1990)
  with bottom-up update support (Lee et al., VLDB 2003), the object index
  of the PRD and Q-index baselines.
* :mod:`repro.index.bulk` — Sort-Tile-Recursive bulk loading of that tree.
* :mod:`repro.index.brute` — a brute-force reference index used as the
  oracle in tests and by the PRD / OPT baselines at small scale.
"""

from repro.index.brute import BruteForceIndex
from repro.index.cells import CellObjectIndex
from repro.index.grid import GridIndex
from repro.index.rstar import RStarTree

__all__ = ["CellObjectIndex", "RStarTree", "GridIndex", "BruteForceIndex"]

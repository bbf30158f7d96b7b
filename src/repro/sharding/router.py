"""Stateless routing of updates and queries onto shards.

The router is pure geometry plus the :class:`~repro.sharding.shardmap.
ShardMap`: a location update goes to the owner of its destination cell,
a range query fans out to every shard owning a cell its rectangle
overlaps, and a kNN query fans out to every shard owning a cell its
quarantine circle intersects.  It keeps *no* per-object or per-query
state, so coordinator and workers can each hold one and always agree.

Cell arithmetic is delegated to a bare :class:`~repro.index.grid.
GridIndex` over the same ``(grid_m, space)`` — the router must clamp
out-of-space points and round cell boundaries *exactly* like the
per-shard servers do, and sharing the implementation is the only way
that never drifts.
"""

from __future__ import annotations

from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.grid import GridIndex
from repro.sharding.shardmap import CellId, ShardMap


class ShardRouter:
    """Maps points, rectangles, and circles to live shard ids."""

    __slots__ = ("map", "grid")

    def __init__(self, shard_map: ShardMap, space: Rect) -> None:
        self.map = shard_map
        # Geometry only — no queries are ever inserted into this grid.
        self.grid = GridIndex(shard_map.grid_m, space)

    @property
    def n_shards(self) -> int:
        return self.map.n_shards

    def cell_of(self, p: Point) -> CellId:
        return self.grid.cell_of(p)

    def shard_for_point(
        self, p: Point, excluding: frozenset[int] = frozenset()
    ) -> int:
        """The shard a location update lands on (the cell's live owner)."""
        return self.map.shard_of(self.grid.cell_of(p), excluding)

    def shards_for_rect(
        self, rect: Rect, excluding: frozenset[int] = frozenset()
    ) -> set[int]:
        """Live shards a range query's rectangle fans out to."""
        return self.map.shards_of(
            self.grid.cells_overlapping(rect), excluding
        )

    def shards_for_circle(
        self, circle: Circle, excluding: frozenset[int] = frozenset()
    ) -> set[int]:
        """Live shards a kNN quarantine circle fans out to.

        ``cells_overlapping`` scans the circle's bounding rectangle; the
        exact disk test then drops the corner cells the disk misses.
        """
        cells = [
            cell
            for cell in self.grid.cells_overlapping(circle.bounding_rect())
            if circle.intersects_rect(self.grid.cell_rect(cell))
        ]
        return self.map.shards_of(cells, excluding)

"""ASCII rendering of the monitored world — a debugging lens.

Renders objects, safe regions, and query quarantine areas into a
character grid.  Invaluable when debugging safe-region geometry: a single
frame shows which query pinches which object.

::

    from repro.viz import render_world
    print(render_world(server, width=60))

Legend: ``.`` empty, ``o`` object, ``#`` safe-region boundary, ``R``
range-query rectangle, ``K`` kNN quarantine circle, ``*`` overlaps.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.core.queries import KNNQuery, Query, RangeQuery
from repro.geometry.point import Point
from repro.geometry.rect import Rect

ObjectId = Hashable

#: Painting order: later layers overwrite earlier ones.
_EMPTY = "."
_REGION = "#"
_RANGE = "R"
_KNN = "K"
_OBJECT = "o"
_OVERLAP = "*"


class AsciiCanvas:
    """A character grid over a rectangular world."""

    def __init__(self, space: Rect, width: int = 72, height: int | None = None):
        if width < 2:
            raise ValueError("width must be at least 2")
        self.space = space
        self.width = width
        if height is None:
            # Terminal cells are ~2x taller than wide; keep aspect ratio.
            height = max(2, round(width * space.height / space.width / 2))
        self.height = height
        self._grid = [[_EMPTY] * width for _ in range(height)]

    # ------------------------------------------------------------------
    def _to_cell(self, p: Point) -> tuple[int, int]:
        cx = (p.x - self.space.min_x) / self.space.width
        cy = (p.y - self.space.min_y) / self.space.height
        col = min(int(cx * self.width), self.width - 1)
        row = min(int((1.0 - cy) * self.height), self.height - 1)
        return max(row, 0), max(col, 0)

    def _paint(self, row: int, col: int, char: str) -> None:
        current = self._grid[row][col]
        if current in (_EMPTY, char):
            self._grid[row][col] = char
        else:
            self._grid[row][col] = _OVERLAP

    def point(self, p: Point, char: str = _OBJECT) -> None:
        row, col = self._to_cell(p)
        self._paint(row, col, char)

    def rect_outline(self, rect: Rect, char: str = _REGION) -> None:
        clipped = rect.intersection(self.space)
        if clipped is None:
            return
        top_left = self._to_cell(Point(clipped.min_x, clipped.max_y))
        bottom_right = self._to_cell(Point(clipped.max_x, clipped.min_y))
        r0, c0 = top_left
        r1, c1 = bottom_right
        for col in range(c0, c1 + 1):
            self._paint(r0, col, char)
            self._paint(r1, col, char)
        for row in range(r0, r1 + 1):
            self._paint(row, c0, char)
            self._paint(row, c1, char)

    def circle_outline(self, center: Point, radius: float, char: str = _KNN) -> None:
        if radius <= 0:
            self.point(center, char)
            return
        steps = max(16, int(2 * 3.14159 * radius / self.space.width * self.width * 2))
        import math
        for i in range(steps):
            angle = 2 * math.pi * i / steps
            p = Point(
                center.x + radius * math.cos(angle),
                center.y + radius * math.sin(angle),
            )
            if self.space.contains_point(p):
                row, col = self._to_cell(p)
                self._paint(row, col, char)

    def render(self) -> str:
        return "\n".join("".join(row) for row in self._grid)


def render_world(
    server,
    width: int = 72,
    show_regions: bool = True,
    show_queries: bool = True,
    objects: Iterable[ObjectId] | None = None,
) -> str:
    """Render a :class:`~repro.core.server.DatabaseServer`'s current view.

    ``objects`` restricts which safe regions are drawn (all by default —
    busy worlds are more readable with a handful).
    """
    canvas = AsciiCanvas(server.config.space, width=width)
    if show_queries:
        for query in sorted(server.queries(), key=lambda q: q.query_id):
            _draw_query(canvas, query)
    ids = set(objects) if objects is not None else None
    # Registration order, so the picture does not depend on how the
    # object index happens to lay its buckets out.
    table = server._objects
    rows = [row for oid, row in table.row_items() if ids is None or oid in ids]
    if show_regions:
        for row in rows:
            canvas.rect_outline(table.region[row], _REGION)
    for row in rows:
        canvas.point(Point(table.x[row], table.y[row]), _OBJECT)
    return canvas.render()


def render_positions(
    positions: Mapping[ObjectId, Point],
    queries: Iterable[Query] = (),
    space: Rect | None = None,
    width: int = 72,
) -> str:
    """Render raw positions and queries without a server."""
    canvas = AsciiCanvas(space or Rect(0.0, 0.0, 1.0, 1.0), width=width)
    for query in queries:
        _draw_query(canvas, query)
    for p in positions.values():
        canvas.point(p, _OBJECT)
    return canvas.render()


def _draw_query(canvas: AsciiCanvas, query: Query) -> None:
    if isinstance(query, RangeQuery):
        canvas.rect_outline(query.rect, _RANGE)
    elif isinstance(query, KNNQuery):
        canvas.circle_outline(query.center, query.radius, _KNN)
        canvas.point(query.center, _KNN)
    else:
        # Extension types: draw the quarantine bounding box.
        canvas.rect_outline(query.quarantine_bounding_rect(), _KNN)

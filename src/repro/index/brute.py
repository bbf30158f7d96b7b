"""A brute-force spatial index with the object index's API.

The correctness oracle the tests check ``CellObjectIndex`` and the
evaluation algorithms against: asymptotics do not matter there, but
trustworthiness does.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator

from repro.geometry.point import Point
from repro.geometry.rect import Rect

ObjectId = Hashable


class BruteForceIndex:
    """Dictionary-backed stand-in for :class:`~repro.index.cells.CellObjectIndex`."""

    def __init__(self) -> None:
        self._rects: dict[ObjectId, Rect] = {}

    def __len__(self) -> int:
        return len(self._rects)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._rects

    def rect_of(self, oid: ObjectId) -> Rect:
        return self._rects[oid]

    def insert(self, oid: ObjectId, rect: Rect) -> None:
        if oid in self._rects:
            raise KeyError(f"object {oid!r} already indexed")
        self._rects[oid] = rect

    def delete(self, oid: ObjectId) -> None:
        del self._rects[oid]

    def update(self, oid: ObjectId, rect: Rect) -> bool:
        if oid not in self._rects:
            raise KeyError(f"object {oid!r} not indexed")
        self._rects[oid] = rect
        return True

    def search(self, rect: Rect) -> list[ObjectId]:
        return [oid for oid, _ in self.search_entries(rect)]

    def search_entries(self, rect: Rect) -> Iterator[tuple[ObjectId, Rect]]:
        for oid, stored in self._rects.items():
            if stored.intersects(rect):
                yield oid, stored

    def nearest_iter(
        self,
        q: Point,
        exclude: Callable[[ObjectId], bool] | None = None,
    ) -> Iterator[tuple[ObjectId, Rect, float]]:
        ranked = sorted(
            (rect.min_d2_to_point(q), oid, rect)
            for oid, rect in self._rects.items()
            if exclude is None or not exclude(oid)
        )
        for d2, oid, rect in ranked:
            yield oid, rect, d2

    def all_entries(self) -> Iterator[tuple[ObjectId, Rect]]:
        yield from self._rects.items()

    def validate(self) -> None:
        """No structure to validate; present for API parity."""

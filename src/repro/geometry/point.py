"""An immutable 2-D point."""

from __future__ import annotations

import math


class Point:
    """A point in the unit square workspace.

    Coordinates are plain floats; the class is hashable so points can be
    used as dictionary keys (e.g. memoising safe-region computations).
    Instances are immutable by convention — nothing in the codebase
    mutates a published point, and value equality/hashing match the
    former frozen-dataclass definition.  (A hand-rolled ``__init__``
    because point construction is hot enough for the frozen-dataclass
    ``object.__setattr__`` overhead to show up in tick profiles.)
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def __repr__(self) -> str:
        return f"Point(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Point:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance ``d(self, other)``: the square root of
        :meth:`squared_distance_to`, so lengths order exactly as the
        ranking key does (``repro.geometry.ties``)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt when comparing)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy moved by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def dominates(self, other: "Point") -> bool:
        """Strict dominance as used by Proposition 5.6 of the paper.

        Point ``a`` dominates point ``b`` iff ``a.x > b.x and a.y > b.y``.
        """
        return self.x > other.x and self.y > other.y

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)

    def __iter__(self):
        yield self.x
        yield self.y

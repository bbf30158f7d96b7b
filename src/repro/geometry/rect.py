"""Axis-aligned rectangles (the paper's safe regions, query ranges, cells)."""

from __future__ import annotations

import math

from repro.geometry.point import Point


class Rect:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    The rectangle is closed: boundary points are contained.  Degenerate
    rectangles (zero width and/or height) are allowed — a freshly updated
    object has a point-sized safe region until the server recomputes it.
    Instances are immutable by convention, with value equality/hashing
    matching the former frozen-dataclass definition; construction is
    hand-rolled because rectangles are minted by the hundred thousand per
    bench run and the frozen ``object.__setattr__`` path dominated.
    """

    __slots__ = ("min_x", "min_y", "max_x", "max_y")

    def __init__(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> None:
        if min_x > max_x or min_y > max_y:
            raise ValueError(
                f"malformed rectangle: ({min_x}, {min_y}, {max_x}, {max_y})"
            )
        self.min_x = min_x
        self.min_y = min_y
        self.max_x = max_x
        self.max_y = max_y

    def __repr__(self) -> str:
        return (
            f"Rect(min_x={self.min_x!r}, min_y={self.min_y!r}, "
            f"max_x={self.max_x!r}, max_y={self.max_y!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Rect:
            return (
                self.min_x == other.min_x
                and self.min_y == other.min_y
                and self.max_x == other.max_x
                and self.max_y == other.max_y
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.min_x, self.min_y, self.max_x, self.max_y))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, p: Point) -> "Rect":
        """Degenerate (point-sized) rectangle."""
        return cls(p.x, p.y, p.x, p.y)

    @classmethod
    def from_center(cls, center: Point, half_width: float, half_height: float) -> "Rect":
        """Rectangle centred at ``center`` with the given half extents."""
        if half_width < 0 or half_height < 0:
            raise ValueError("half extents must be non-negative")
        return cls(
            center.x - half_width,
            center.y - half_height,
            center.x + half_width,
            center.y + half_height,
        )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def perimeter(self) -> float:
        """Perimeter — the quantity Theorem 5.1 says to maximise."""
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    @property
    def is_degenerate(self) -> bool:
        """True if the rectangle has zero area."""
        return self.width == 0.0 or self.height == 0.0

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point, eps: float = 0.0) -> bool:
        """Whether ``p`` lies in the (closed) rectangle, within ``eps``."""
        return (
            self.min_x - eps <= p.x <= self.max_x + eps
            and self.min_y - eps <= p.y <= self.max_y + eps
        )

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` is fully inside this rectangle."""
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the closed rectangles share at least one point."""
        return (
            self.min_x <= other.max_x
            and other.min_x <= self.max_x
            and self.min_y <= other.max_y
            and other.min_y <= self.max_y
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def intersection(self, other: "Rect") -> "Rect | None":
        """Intersection rectangle, or ``None`` when disjoint."""
        min_x = self.min_x if self.min_x >= other.min_x else other.min_x
        min_y = self.min_y if self.min_y >= other.min_y else other.min_y
        max_x = self.max_x if self.max_x <= other.max_x else other.max_x
        max_y = self.max_y if self.max_y <= other.max_y else other.max_y
        if min_x > max_x or min_y > max_y:
            return None
        return Rect(min_x, min_y, max_x, max_y)

    def expanded(self, amount: float) -> "Rect":
        """Rectangle grown by ``amount`` on every side (clamped to valid)."""
        if amount < 0:
            half_w = min(-amount, self.width / 2.0)
            half_h = min(-amount, self.height / 2.0)
            return Rect(
                self.min_x + half_w,
                self.min_y + half_h,
                self.max_x - half_w,
                self.max_y - half_h,
            )
        return Rect(
            self.min_x - amount,
            self.min_y - amount,
            self.max_x + amount,
            self.max_y + amount,
        )

    # ------------------------------------------------------------------
    # Distances (delta / Delta of the paper for point-vs-rect)
    # ------------------------------------------------------------------
    def min_dist_to_point(self, p: Point) -> float:
        """``delta(p, self)``: 0 when ``p`` is inside."""
        return math.sqrt(self.min_d2_to_point(p))

    def max_dist_to_point(self, p: Point) -> float:
        """``Delta(p, self)``: distance to the farthest corner."""
        return math.sqrt(self.max_d2_to_point(p))

    def min_d2_to_point(self, p: Point) -> float:
        """Squared ``delta(p, self)``: the ranking key's lower bound, and
        ``p.squared_distance_to(s)`` exactly for a point-sized rect at ``s``."""
        x = p.x
        if x < self.min_x:
            dx = self.min_x - x
        elif x > self.max_x:
            dx = x - self.max_x
        else:
            dx = 0.0
        y = p.y
        if y < self.min_y:
            dy = self.min_y - y
        elif y > self.max_y:
            dy = y - self.max_y
        else:
            dy = 0.0
        return dx * dx + dy * dy

    def max_d2_to_point(self, p: Point) -> float:
        """Squared ``Delta(p, self)``: the ranking key's upper bound."""
        dx = max(p.x - self.min_x, self.max_x - p.x)
        dy = max(p.y - self.min_y, self.max_y - p.y)
        return dx * dx + dy * dy

    def clamp_point(self, p: Point) -> Point:
        """Closest point of the rectangle to ``p``."""
        return Point(
            min(max(p.x, self.min_x), self.max_x),
            min(max(p.y, self.min_y), self.max_y),
        )

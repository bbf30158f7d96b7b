"""Circles — the quarantine areas of kNN queries (Section 3.3)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass(frozen=True, slots=True)
class Circle:
    """A closed disk centred at ``center`` with radius ``radius``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"negative radius: {self.radius}")

    def contains_point(self, p: Point, eps: float = 0.0) -> bool:
        """Whether ``p`` lies in the closed disk (within ``eps``).

        ``d(center, p) <= radius``, with ``d`` the square root of
        ``dx*dx + dy*dy`` like every length in ``repro.geometry``: a
        radius taken from a distance counts the point it came from as
        on the circle, never outside it (``repro.geometry.ties``).
        """
        return self.center.distance_to(p) <= self.radius + eps

    def contains_rect(self, rect: Rect) -> bool:
        """Whether the whole rectangle lies in the disk.

        True iff the corner farthest from the centre is within the radius.
        """
        return rect.max_dist_to_point(self.center) <= self.radius

    def intersects_rect(self, rect: Rect) -> bool:
        """Whether disk and rectangle share at least one point."""
        return rect.min_dist_to_point(self.center) <= self.radius

    def excludes_rect(self, rect: Rect) -> bool:
        """Whether the rectangle is entirely outside the open disk."""
        return rect.min_dist_to_point(self.center) >= self.radius

    def bounding_rect(self) -> Rect:
        """Axis-aligned bounding rectangle of the disk."""
        return Rect(
            self.center.x - self.radius,
            self.center.y - self.radius,
            self.center.x + self.radius,
            self.center.y + self.radius,
        )

    def expanded(self, amount: float) -> "Circle":
        """Disk grown (or shrunk, clamped at 0) by ``amount``."""
        return Circle(self.center, max(self.radius + amount, 0.0))

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi * self.radius

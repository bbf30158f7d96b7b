"""Client-side logic of the SRB scheme.

A mobile client is deliberately simple (one of the paper's selling points):
it knows one rectangle — its current safe region — and sends a location
update exactly when it steps outside.  Between sending an update and
receiving the server's response it is *awaiting* and stays silent; on
receiving a safe region that it has already left (possible under
communication delay), it immediately reports again.
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.mobility.waypoint import Trajectory


class MobileClient:
    """A moving object participating in safe-region monitoring."""

    __slots__ = ("oid", "trajectory", "safe_region", "awaiting", "epoch")

    def __init__(self, oid, trajectory: Trajectory) -> None:
        self.oid = oid
        self.trajectory = trajectory
        self.safe_region: Rect | None = None
        #: True between sending an update and installing the response.
        self.awaiting = False
        #: Version counter invalidating stale scheduled boundary-crossing
        #: events after a newer safe region arrives.
        self.epoch = 0

    def position_at(self, t: float) -> Point:
        """Exact position at time ``t`` (GPS reading)."""
        return self.trajectory.position_at(t)

    def install_safe_region(self, region: Rect, t: float) -> bool:
        """Accept a safe region from the server at time ``t``.

        Returns ``True`` when the client is (still) inside the region —
        the normal case — and ``False`` when it has already left, in which
        case the caller must send a fresh location update immediately.
        """
        self.adopt_safe_region(region)
        return region.contains_point(self.position_at(t), eps=1e-12)

    def adopt_safe_region(self, region: Rect) -> None:
        """:meth:`install_safe_region` for a caller that knows where the
        client is — start-up, where the region was derived from the
        position reported in the same instant."""
        self.epoch += 1
        self.awaiting = False
        self.safe_region = region

    def begin_update(self) -> None:
        """Mark an update as sent; the client mutes until the response."""
        self.awaiting = True
        self.epoch += 1
        self.safe_region = None

    def next_exit_time(self, t: float, horizon: float) -> float:
        """When the client will leave its current safe region.

        ``inf`` when it stays inside until ``horizon`` (or has no region).
        """
        if self.safe_region is None:
            return float("inf")
        return self.trajectory.exit_time_from_rect(self.safe_region, t, horizon)

"""Client-side logic of the SRB scheme.

A mobile client is deliberately simple (one of the paper's selling points):
it knows one rectangle — its current safe region — and sends a location
update exactly when it steps outside.  Between sending an update and
receiving the server's response it is *awaiting* and stays silent; on
receiving a safe region that it has already left (possible under
communication delay), it reports again at its next position poll, not at
once: an immediate resend ping-pongs with the server under delay.  Client
state is columns (:class:`Clients`); a :class:`MobileClient` views a row.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping

from repro.geometry.rect import Rect
from repro.mobility.waypoint import Fleet, Trajectory
from repro.rows import Rows


class MobileClient(Trajectory):
    """A moving object in safe-region monitoring: a view of row ``index``
    of a :class:`Clients` table and of its trajectory's row at once."""

    __slots__ = ("_clients", "_index")

    def __init__(self, clients: Clients, index: int) -> None:
        self._clients, self._index = clients, index
        if clients._fleet is None:  # a mapping of views: its view's row
            view = clients.trajectories[clients._oids[index]]
            self._fleet, self._row = view._fleet, view._row
        else:
            self._fleet, self._row = clients._fleet, index

    oid = property(lambda self: self._clients._oids[self._index])
    safe_region = property(lambda self: self._clients.regions[self._index])
    awaiting = property(lambda self: bool(self._clients.awaiting[self._index]))
    epoch = property(lambda self: self._clients.epochs[self._index])

    def install_safe_region(self, region: Rect, t: float) -> bool:
        """Accept a safe region from the server at time ``t``.

        Returns ``True`` when the client is (still) inside the region —
        the normal case — and ``False`` when it has already left.  The
        caller then rechecks at the client's next position poll and sends
        a fresh update only if it is still outside: an immediate resend
        would ping-pong with the server under delay.
        """
        self.adopt_safe_region(region)
        return region.contains_point(self.position_at(t), eps=1e-12)

    def adopt_safe_region(self, region: Rect) -> None:
        """:meth:`install_safe_region` for a caller that knows where the
        client is — start-up, where the region was derived from the
        position reported in the same instant."""
        clients, index = self._clients, self._index
        clients.epochs[index] += 1
        clients.awaiting[index] = False
        clients.regions[index] = region

    def begin_update(self) -> None:
        """Mark an update as sent; the client mutes until the response."""
        clients, index = self._clients, self._index
        clients.awaiting[index] = True
        clients.epochs[index] += 1
        clients.regions[index] = None

    def next_exit_time(self, t: float, horizon: float) -> float:
        """When the client will leave its current safe region.

        ``inf`` when it stays inside until ``horizon`` (or has no region).
        """
        region = self.safe_region
        if region is None:
            return float("inf")
        return self.exit_time_from_rect(region, t, horizon)


class Clients(Rows):
    """Every client's state, a row per oid of ``trajectories``: its safe
    region (``None`` before one arrives and while awaiting), its epoch,
    which voids exits scheduled before a newer region, and its awaiting
    flag, set from sending an update until the response installs."""

    __slots__ = ("trajectories", "_fleet", "regions", "epochs", "awaiting")
    _View = MobileClient

    def __init__(self, trajectories: Mapping[object, Trajectory]) -> None:
        super().__init__(trajectories)
        self.trajectories = trajectories
        self._fleet = trajectories if isinstance(trajectories, Fleet) else None
        n = len(self._oids)
        self.regions: list[Rect | None] = [None] * n
        self.epochs = array("q", bytes(8 * n))
        self.awaiting = bytearray(n)

    def current(self, oid, epoch: int, awaiting: bool = False) -> bool:
        """Whether an event stamped ``epoch`` still holds for ``oid``: no
        newer region has come, and the client is (or is not) awaiting one."""
        row = self._row(oid)
        return epoch == self.epochs[row] and self.awaiting[row] == awaiting

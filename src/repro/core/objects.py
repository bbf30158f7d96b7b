"""The server's object table (Section 3, Algorithm 1): a row per object.

The server keeps, per object, only what the paper's location manager
needs: the installed safe region, the last reported position, the grid
cell of that position, the time of the report, and the safe-region
certificate (docs/PERFORMANCE.md, "Server state as columns").  They are
columns of one :class:`Objects` table, read and written by row on the
server's hot paths; :class:`ObjectState` is a view of one row, made on
access for callers outside them.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping

from repro.geometry.point import Point
from repro.geometry.ties import admit_ids
from repro.rows import GrowingRows


class ObjectState:
    """The server's state of one object: a view of a row of :class:`Objects`.

    ``cell`` is ``GridIndex.cell_of(p_lst)``, the grid's interned id; it
    is written wherever the position is, and read instead of recomputing
    the cell from coordinates.

    ``sr_cert`` is the safe-region certificate: ``(cell, cell
    generation, clearances)``, issued with the installed region by
    ``DatabaseServer._full_safe_region`` and tested only by
    ``DatabaseServer._certificate_holds``.  Its cell is always the held
    cell (a held cell that moves without a new region voids it), so the
    table keeps the generation (``cert_gen``, -1 for none) and the
    clearances, flat (``(query, clearance, query, ...)``).  While the
    cell's relevant-query set keeps that generation, a report the
    certificate covers is a provable no-op: no verdict can flip and the
    installed region stays valid.  Two kinds:

    * *query-free cell* (``clearances is None``) — the region is the
      full closed cell; covers a report landing in the same or another
      query-free cell (both candidate buckets are empty).
    * *covered cell* (``clearances`` a tuple of ``(kNN query,
      clearance)``) — every relevant query is a built-in type and the
      region lies outside every relevant kNN quarantine circle; each
      *clearance* is the region's minimum distance to that query's
      centre.  Covers a report strictly interior to the region while no
      recorded radius exceeds its clearance (a circle that small cannot
      reach the region; range rects are immutable and member regions
      are contained in their rects).

    ``None`` when a relevant kNN quarantine holds the object or the
    region (rank changes are invisible to the clearance check), a
    relevant query is a custom extension type, or the region was
    degraded or shrink-tightened.  A policy, not a cache.
    """

    __slots__ = ("_objects", "_row")

    def __init__(self, objects: Objects, row: int) -> None:
        self._objects, self._row = objects, row

    safe_region = property(lambda self: self._objects.region[self._row])
    cell = property(lambda self: self._objects.cell[self._row])
    last_update_time = property(lambda self: self._objects.t[self._row])

    @property
    def p_lst(self) -> Point:
        objects, row = self._objects, self._row
        return Point(objects.x[row], objects.y[row])

    @property
    def sr_cert(self) -> tuple | None:
        objects, row = self._objects, self._row
        generation = objects.cert_gen[row]
        if generation < 0:
            return None
        flat = objects.clearances[row]
        clearances = None if flat is None else tuple(zip(flat[::2], flat[1::2]))
        return (objects.cell[row], generation, clearances)

    def _fields(self) -> tuple:
        return (self.safe_region, self.p_lst, self.cell,
                self.last_update_time, self.sr_cert)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ObjectState:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        names = ("safe_region", "p_lst", "cell", "last_update_time", "sr_cert")
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"ObjectState({fields})"


class Objects(GrowingRows):
    """Every object the server monitors, a row each, in columns:

    * ``region`` — the installed safe region (query-free cells share
      their interned cell ``Rect``);
    * ``x``, ``y`` — the held (last reported) position, bit for bit;
    * ``cell`` — the grid's interned id of that position's cell;
    * ``t`` — the time of that report;
    * ``cert_gen`` and ``clearances`` — the certificate
      (:class:`ObjectState`).

    ``t`` and ``cert_gen`` are lists, not arrays: the no-op exit reads
    or writes them per report, and CPython specialises a list subscript
    but not an ``array`` one.  A generation is the grid's own int and
    the objects of one bootstrap or one batch share their time, so the
    lists hold pointers; times of separate reports are a float each.
    A freed row drops its references until it is refilled.  ``kinds``
    holds one admitted id per id type: a new id must order against them
    (``repro.geometry.ties.admit_ids``).
    """

    __slots__ = (
        "region", "x", "y", "cell", "t", "cert_gen", "clearances", "kinds",
    )
    _View = ObjectState

    def __init__(self) -> None:
        super().__init__()
        self.region: list = []
        self.x, self.y = array("d"), array("d")
        self.cell: list = []
        self.t: list = []
        self.cert_gen: list = []
        self.clearances: list = []
        self.kinds: dict = {}

    def _grow(self, n: int) -> None:
        blank = [None] * n
        self.region += blank
        self.cell += blank
        self.clearances += blank
        self.t += [0.0] * n
        self.cert_gen += [-1] * n
        # ``array * n`` is sized exactly; growing one in place adds 1/16.
        for name in ("x", "y"):
            column = getattr(self, name)
            rows = array("d", [0.0]) * n
            if column:
                column.extend(rows)
            else:
                setattr(self, name, rows)

    def put(self, oid, region, x: float, y: float, cell, t: float) -> int:
        """A row for new ``oid`` holding a region, a report and its cell,
        with no certificate; returns the row."""
        if type(oid) not in self.kinds:
            admit_ids((oid,), self.kinds)
        row = self.add(oid)
        self.region[row], self.cell[row] = region, cell
        self.x[row], self.y[row], self.t[row] = x, y, t
        self.cert_gen[row], self.clearances[row] = -1, None
        return row

    def load(self, oids: list, regions: list, xs: array, ys: array,
             cells: list, t: float) -> int:
        """:meth:`put` of every oid of ``oids`` in one pass over the
        columns; returns the first row."""
        admit_ids(oids, self.kinds)
        first = self.extend(oids)
        end = first + len(oids)
        self.region[first:end] = regions
        self.cell[first:end] = cells
        self.x[first:end], self.y[first:end] = xs, ys
        self.t[first:end] = [t] * len(oids)
        return first

    def discard(self, oid) -> int:
        """Free the row of ``oid``, dropping its references."""
        row = super().discard(oid)
        self.region[row] = self.cell[row] = self.clearances[row] = None
        self.cert_gen[row] = -1
        return row

    def hold(self, row: int, position: Point, cell, t: float) -> None:
        """Hold a report: position, cell and time.  A report into another
        cell voids the certificate, which names the held cell."""
        if cell != self.cell[row]:
            self.cert_gen[row] = -1
            self.clearances[row] = None
            self.cell[row] = cell
        self.x[row] = position.x
        self.y[row] = position.y
        self.t[row] = t

    def uncertify(self, row: int) -> None:
        """Void the certificate of ``row``."""
        self.cert_gen[row] = -1
        self.clearances[row] = None


class HeldPositions:
    """Read-only ``(x, y)`` view of every object's held position.

    ``get(oid)`` answers ``(x, y)``, or ``None`` for an unknown object.
    """

    __slots__ = ("_objects",)

    def __init__(self, objects: Objects) -> None:
        self._objects = objects

    def get(self, oid):
        objects = self._objects
        row = objects.find(oid)
        if row is None:
            return None
        return (objects.x[row], objects.y[row])


class Regions(Mapping):
    """Read-only oid -> installed safe region, over an :class:`Objects`
    table (what ``DatabaseServer.bootstrap`` hands out)."""

    __slots__ = ("_objects",)

    def __init__(self, objects: Objects) -> None:
        self._objects = objects

    def __getitem__(self, oid):
        objects = self._objects
        row = objects.find(oid)
        if row is None:
            raise KeyError(oid)
        return objects.region[row]

    def __iter__(self):
        return iter(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def items(self):
        """``(oid, region)`` in table order, one pass over the column."""
        regions = self._objects.region
        return ((oid, regions[row]) for oid, row in self._objects.row_items())

"""Oid-keyed tables of columns: state held as rows, not per-object objects.

A table maps each object id to a row number; its state lives in columns
(lists and arrays) indexed by row, and ``table[oid]`` builds a view of
the row on access.  :class:`Rows` is a fixed set of oids (the movers and
their clients); :class:`GrowingRows` takes oids in and out (the server's
objects, an object index's keys).
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import eq
from typing import Iterable, Iterator

_INT = frozenset((int,))


class Rows(Mapping):
    """An oid-keyed table: ``table[oid]`` is a ``_View`` of the oid's row,
    made on access.  Tables over the same oids share one int object per
    oid; a range of oids answers its O(1) ``index``, holding no dict."""

    __slots__ = ("_oids", "_row")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, oids: Iterable) -> None:
        if isinstance(oids, Rows):
            self._oids, self._row = oids._oids, oids._row
        elif isinstance(oids, range):
            self._oids, self._row = list(oids), oids.index
        else:
            rows = {oid: row for row, oid in enumerate(dict.fromkeys(oids))}
            self._oids, self._row = list(rows), rows.__getitem__

    def __getitem__(self, oid):
        try:
            return self._View(self, self._row(oid))
        except ValueError:  # ``range.index``
            raise KeyError(oid) from None

    def __iter__(self):
        return iter(self._oids)

    def __len__(self) -> int:
        return len(self._oids)


class GrowingRows(Rows):
    """:class:`Rows` whose oids come and go.

    While the oids are the ints ``0 .. n-1`` in row order and none has
    left, they are that range, which answers each row and holds no int
    (iterating it makes ints: a caller that keeps oids should keep the
    ones it loaded, shared with the table they came from).  Any other
    oid, or a removal, switches for good to a list of oids and a dict of
    oid -> row, kept in insertion order, which is then the iteration
    order; a removed row is refilled by the next single :meth:`add`.
    Row numbers never change.  A subclass keeps its columns as long as
    ``_oids`` in :meth:`_grow`.

    ``find(oid)`` is the row of ``oid``, or ``None`` if it has none, in
    O(1) for any key: the way in for ids from outside (a report, a
    lookup), where ``_row`` is for ids known to be rows (``range.index``
    compares a key that is not an int with every row before it fails).
    """

    __slots__ = ("_dict", "_free", "find")

    def __init__(self) -> None:
        self._dict: dict | None = None
        self._free: list[int] = []
        self._ranged(0)

    def __iter__(self):
        return iter(self._oids if self._dict is None else self._dict)

    def __len__(self) -> int:
        return len(self._oids if self._dict is None else self._dict)

    def __getitem__(self, oid):
        row = self.find(oid)
        if row is None:
            raise KeyError(oid)
        return self._View(self, row)

    def __contains__(self, oid) -> bool:
        return self.find(oid) is not None

    def _ranged(self, n: int) -> None:
        """Hold the oids ``0 .. n-1`` as a range: an oid is its row."""
        self._oids = range(n)
        self._row = self._oids.index

        def find(oid):
            return oid if isinstance(oid, int) and 0 <= oid < n else None

        self.find = find

    def row_items(self) -> Iterator[tuple]:
        """``(oid, row)`` of every row, in table order."""
        if self._dict is None:
            return zip(self._oids, range(len(self._oids)))
        return iter(self._dict.items())

    def _grow(self, n: int) -> None:
        """Extend every column by ``n`` blank rows (there are none here)."""

    def _keyed(self) -> dict:
        """The oid -> row dict, made from the range on first need."""
        if self._dict is None:
            self._oids = list(self._oids)
            self._dict = {oid: row for row, oid in enumerate(self._oids)}
            self._row = self._dict.__getitem__
            self.find = self._dict.get
        return self._dict

    def add(self, oid) -> int:
        """A row for new ``oid`` (``KeyError`` if present): a freed row,
        else one appended."""
        if self._free:
            if oid in self._dict:
                raise KeyError(f"object {oid!r} already present")
            row = self._dict[oid] = self._free.pop()
            self._oids[row] = oid
            return row
        return self.extend([oid])

    def extend(self, oids: list) -> int:
        """Append a row per oid of ``oids`` (``KeyError`` if one is present
        or repeated, leaving the table as it was); returns the first."""
        first = len(self._oids)
        end = first + len(oids)
        if (
            self._dict is None
            and all(map(eq, oids, range(first, end)))
            and _INT.issuperset(map(type, oids))
        ):
            self._ranged(end)
        else:
            keyed = self._keyed()
            for row, oid in enumerate(oids, first):
                if oid in keyed:
                    for undo in oids[:row - first]:
                        del keyed[undo]
                    raise KeyError(f"object {oid!r} already present")
                keyed[oid] = row
            self._oids += oids
        self._grow(len(oids))
        return first

    def discard(self, oid) -> int:
        """Free the row of ``oid`` (``KeyError`` if absent); returns it."""
        row = self._keyed().pop(oid)
        self._oids[row] = None
        self._free.append(row)
        return row

"""One tie rule and one boundary rule, for every query kind.

Objects rank by ``(squared distance, oid)``: a point by ``dx*dx + dy*dy``,
a safe region by its lower bound ``Rect.min_d2_to_point`` while it waits
and by its upper bound ``Rect.max_d2_to_point`` when it is confirmed.
Every length in ``repro.geometry`` is the square root of the same sum, so
no length orders two objects against their keys.  Rectangles and disks
are closed, and a report is judged by its position and by whether its
object is a result now.  DESIGN.md "Ties and boundaries" lists the sites
and why the midpoint quarantine radius makes ties the paper never has.
"""

from __future__ import annotations

import numpy as np


def ranks_before(d2, oid, other_d2, other_oid) -> bool:
    """Whether key ``(d2, oid)`` ranks before ``(other_d2, other_oid)``."""
    return d2 < other_d2 or (d2 == other_d2 and oid < other_oid)


def top_k_rows(xs, ys, qx: float, qy: float, k: int) -> list[int]:
    """Rows of the ``k`` points nearest ``(qx, qy)``, ordered by
    ``(d2, row)`` — the column form of the key, for rows in oid order.

    ``d2`` is ``dx*dx + dy*dy`` per row, the same bits as the scalar key;
    the row breaks exact ties, so the selection never depends on how
    ``argpartition`` splits them.
    """
    n = len(xs)
    if k <= 0 or n == 0:
        return []
    k = min(k, n)
    dx = np.asarray(xs, dtype=np.float64) - qx
    dy = np.asarray(ys, dtype=np.float64) - qy
    d2 = dx * dx + dy * dy
    if k < n:
        cand = np.flatnonzero(d2 <= d2[np.argpartition(d2, k - 1)[k - 1]])
    else:
        cand = np.arange(n)
    return cand[np.lexsort((cand, d2[cand]))][:k].tolist()


def flips(inside: bool, member: bool) -> bool:
    """Range kinds: a report matters iff it changes membership."""
    return inside != member


def reaches(inside: bool, member: bool) -> bool:
    """Order-sensitive kNN and box quarantines: a member's report always
    matters, and so does any report inside the closed area.  (An
    order-insensitive kNN query is affected on its circle or when
    membership flips.)"""
    return member or inside


class UnorderableIds(TypeError):
    """Two object ids that cannot be ordered against each other.

    An exact tie ranks by oid, so every pair of monitored ids must
    compare; a mix such as ints and strs is refused where the ids enter,
    not at the first tie.
    """


def admit_ids(oids, kinds: dict) -> None:
    """Check that ``oids`` order against each other and against
    ``kinds`` (type -> one admitted id of it), recording their types.

    One representative per type is compared, so the cost is one pass of
    ``type`` over the ids.
    """
    for kind in set(map(type, oids)).difference(kinds):
        oid = next(o for o in oids if type(o) is kind)
        for other in (oid, *kinds.values()):
            try:
                oid < other
            except TypeError:
                raise UnorderableIds(
                    f"object ids {oid!r} and {other!r} cannot be ordered "
                    "against each other (exact kNN ties rank by oid)"
                ) from None
        kinds[kind] = oid

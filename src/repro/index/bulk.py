"""Sort-Tile-Recursive (STR) bulk loading for the R*-tree.

The simulator (re)builds object indexes over up to ~100k rectangles; STR
packing (Leutenegger et al., ICDE 1997) builds a near-optimal tree in
O(n log n) instead of n individual inserts.  The PRD baseline also uses it,
since periodic monitoring rebuilds its object index at every update instant.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.geometry.rect import Rect
from repro.index.node import Entry, Node, ObjectId
from repro.index.rstar import RStarTree


def bulk_load(
    items: Iterable[tuple[ObjectId, Rect]],
    max_entries: int = 32,
    min_fill: float = 0.4,
    fill: float = 0.9,
) -> RStarTree:
    """Build an :class:`RStarTree` from ``(oid, rect)`` pairs with STR.

    ``fill`` is the target node occupancy (fraction of ``max_entries``);
    leaving headroom keeps the first post-load inserts cheap.
    """
    tree = RStarTree(max_entries=max_entries, min_fill=min_fill)
    pairs = list(items)
    if not pairs:
        return tree
    seen: set[ObjectId] = set()
    for oid, _ in pairs:
        if oid in seen:
            raise KeyError(f"duplicate object {oid!r} in bulk load")
        seen.add(oid)

    capacity = max(tree.min_entries + 1, int(max_entries * fill))
    entries = [Entry(rect, oid=oid) for oid, rect in pairs]
    level = 0
    nodes = _pack_level(entries, capacity, tree.min_entries, level, is_leaf=True)
    while len(nodes) > 1:
        level += 1
        parent_entries = [Entry(node.mbr(), child=node) for node in nodes]
        nodes = _pack_level(
            parent_entries, capacity, tree.min_entries, level, is_leaf=False
        )

    root = nodes[0]
    tree.root = root
    _wire_parents(tree, root)
    tree._rect_of = {oid: rect for oid, rect in pairs}
    return tree


def _pack_level(
    entries: list[Entry],
    capacity: int,
    min_entries: int,
    level: int,
    is_leaf: bool,
) -> list[Node]:
    """Tile one level of entries into nodes of at most ``capacity``.

    A trailing node that would fall below ``min_entries`` steals entries
    from its predecessor so the R*-tree fill invariant holds everywhere.
    """
    n = len(entries)
    if n <= capacity:
        node = Node(is_leaf=is_leaf, level=level)
        node.entries = list(entries)
        return [node]

    node_count = math.ceil(n / capacity)
    slice_count = math.ceil(math.sqrt(node_count))
    slice_size = slice_count * capacity

    entries = sorted(entries, key=lambda e: e.rect.center.x)
    nodes: list[Node] = []
    for i in range(0, n, slice_size):
        strip = sorted(
            entries[i : i + slice_size], key=lambda e: e.rect.center.y
        )
        for j in range(0, len(strip), capacity):
            node = Node(is_leaf=is_leaf, level=level)
            node.entries = strip[j : j + capacity]
            nodes.append(node)

    for i in range(1, len(nodes)):
        short = min_entries - len(nodes[i].entries)
        if short > 0:
            donor = nodes[i - 1]
            nodes[i].entries = donor.entries[-short:] + nodes[i].entries
            donor.entries = donor.entries[:-short]
    return nodes


def _wire_parents(tree: RStarTree, node: Node) -> None:
    """Set parent pointers and the direct-access tables recursively."""
    if node.is_leaf:
        for entry in node.entries:
            tree._leaf_of[entry.oid] = node
            tree._entry_of[entry.oid] = entry
        return
    for entry in node.entries:
        entry.child.parent = node
        entry.child.parent_entry = entry
        _wire_parents(tree, entry.child)

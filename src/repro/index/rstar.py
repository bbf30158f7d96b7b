"""A dynamic R*-tree with bottom-up update support.

The paper's object index (Section 3.2) is an R*-tree; here the server
indexes safe regions by query-grid cell instead (``repro.index.cells``),
and this tree serves the PRD and Q-index baselines.  The insertion
strategy follows the R*-tree (Beckmann, Kriegel, Schneider, Seeger —
SIGMOD 1990): choose-subtree by overlap/area enlargement, forced
reinsertion on first overflow per level, and the margin-driven
topological split.  Frequent location updates go
through :meth:`RStarTree.update`, which applies the bottom-up technique of
Lee et al. (VLDB 2003): when the new rectangle still fits in the leaf's
parent entry, the leaf entry is patched in place without any root-to-leaf
descent or MBR propagation.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Iterable, Iterator

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.node import Entry, Node, ObjectId


class RStarTree:
    """An in-memory R*-tree over ``(object id, rectangle)`` pairs.

    Each object id appears at most once.  Rectangles may be degenerate
    (points).  The tree keeps a direct-access table from object id to the
    leaf holding it, enabling O(1)-descent updates and deletions.
    """

    def __init__(
        self,
        max_entries: int = 32,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.max_entries = max_entries
        self.min_entries = max(2, int(math.floor(max_entries * min_fill)))
        self.reinsert_count = max(1, int(max_entries * reinsert_fraction))
        self.root: Node = Node(is_leaf=True, level=0)
        self._leaf_of: dict[ObjectId, Node] = {}
        self._rect_of: dict[ObjectId, Rect] = {}
        # Direct pointer to the live leaf Entry of each object: entries
        # survive splits, reinsertion, and condensation by identity, so
        # the table only changes on insert/delete.  It turns the
        # bottom-up update patch into a single attribute store.
        self._entry_of: dict[ObjectId, Entry] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rect_of)

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._rect_of

    @property
    def height(self) -> int:
        """Number of levels (a single leaf root has height 1)."""
        return self.root.level + 1

    def rect_of(self, oid: ObjectId) -> Rect:
        """Current rectangle stored for ``oid`` (KeyError when absent)."""
        return self._rect_of[oid]

    def insert(self, oid: ObjectId, rect: Rect) -> None:
        """Insert a new object.  Raises ``KeyError`` if already present."""
        if oid in self._rect_of:
            raise KeyError(f"object {oid!r} already indexed")
        self._rect_of[oid] = rect
        entry = Entry(rect, oid=oid)
        self._entry_of[oid] = entry
        self._insert_entry(entry, level=0)

    def delete(self, oid: ObjectId) -> None:
        """Remove an object.  Raises ``KeyError`` when absent."""
        leaf = self._leaf_of.pop(oid)
        del self._rect_of[oid]
        entry = self._entry_of.pop(oid)
        try:
            leaf.entries.remove(entry)
        except ValueError:  # pragma: no cover — table desynchronised
            raise RuntimeError("leaf table inconsistent with tree") from None
        self._condense(leaf)

    def update(self, oid: ObjectId, rect: Rect) -> bool:
        """Move ``oid`` to a new rectangle.

        Returns ``True`` when the new rectangle fit inside the leaf's
        recorded MBR so only the leaf entry was patched, ``False`` when
        ancestor MBRs had to be enlarged.  Either way the update is
        bottom-up (Lee et al.): the entry is patched in place and MBRs
        only grow — no delete + reinsert, no choose-subtree descent.
        Movement is local in this workload (a safe region stays inside
        one grid cell), so the enlargement converges on the union of the
        cells a leaf's objects visit; splits and condensation recompute
        tight MBRs whenever membership actually changes.
        """
        leaf = self._leaf_of[oid]
        self._entry_of[oid].rect = rect
        self._rect_of[oid] = rect
        parent_entry = leaf.parent_entry
        if parent_entry is None or parent_entry.rect.contains_rect(rect):
            return True
        self._extend_upward(leaf, rect)
        return False

    def search(self, rect: Rect) -> list[ObjectId]:
        """Ids of all objects whose rectangle intersects ``rect``."""
        return [oid for oid, _ in self.search_entries(rect)]

    def search_entries(self, rect: Rect) -> Iterator[tuple[ObjectId, Rect]]:
        """Yield ``(oid, stored rect)`` for rectangles intersecting ``rect``."""
        if not self.root.entries:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    if entry.rect.intersects(rect):
                        yield entry.oid, entry.rect
            else:
                for entry in node.entries:
                    if entry.rect.intersects(rect):
                        stack.append(entry.child)

    def nearest_iter(
        self,
        q: Point,
        exclude: Callable[[ObjectId], bool] | None = None,
    ) -> Iterator[tuple[ObjectId, Rect, float]]:
        """Incremental best-first nearest-neighbour iterator.

        Yields ``(oid, rect, delta(q, rect))`` in non-decreasing order of
        minimum distance to ``q`` (Hjaltason & Samet distance browsing).
        ``exclude`` filters objects (used when reevaluation must skip the
        current result set, Section 4.3 case 1).
        """
        if not self.root.entries:
            return
        counter = itertools.count()
        heap: list[tuple[float, int, Node | Entry]] = [
            (0.0, next(counter), self.root)
        ]
        while heap:
            dist, _, item = heapq.heappop(heap)
            if isinstance(item, Node):
                for entry in item.entries:
                    d = entry.rect.min_dist_to_point(q)
                    target = entry if item.is_leaf else entry.child
                    heapq.heappush(heap, (d, next(counter), target))
            else:
                if exclude is not None and exclude(item.oid):
                    continue
                yield item.oid, item.rect, dist

    def all_entries(self) -> Iterator[tuple[ObjectId, Rect]]:
        """Yield every ``(oid, rect)`` pair in the tree."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for entry in node.entries:
                    yield entry.oid, entry.rect
            else:
                stack.extend(entry.child for entry in node.entries)

    # ------------------------------------------------------------------
    # Insertion machinery
    # ------------------------------------------------------------------
    def _insert_entry(self, entry: Entry, level: int) -> None:
        """Insert ``entry`` at ``level``, with one forced-reinsert pass."""
        self._insert_at(entry, level, reinserted_levels=set())

    def _insert_at(
        self, entry: Entry, level: int, reinserted_levels: set[int]
    ) -> None:
        node = self._choose_subtree(entry.rect, level)
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
            entry.child.parent_entry = entry
        elif node.is_leaf:
            self._leaf_of[entry.oid] = node
        self._extend_upward(node, entry.rect)
        if len(node.entries) > self.max_entries:
            self._overflow(node, reinserted_levels)

    def _choose_subtree(self, rect: Rect, level: int) -> Node:
        """Descend from the root to the best node at ``level``."""
        node = self.root
        while node.level > level:
            if node.level == level + 1 and node.entries[0].child.is_leaf:
                best = self._pick_min_overlap_child(node, rect)
            else:
                best = self._pick_min_enlargement_child(node, rect)
            node = best.child
        return node

    @staticmethod
    def _pick_min_enlargement_child(node: Node, rect: Rect) -> Entry:
        """Child whose MBR needs least area enlargement (ties: least area)."""
        best = None
        best_key = (math.inf, math.inf)
        for entry in node.entries:
            key = (entry.rect.enlargement(rect), entry.rect.area)
            if key < best_key:
                best_key = key
                best = entry
        return best

    def _pick_min_overlap_child(self, node: Node, rect: Rect) -> Entry:
        """Child needing least overlap enlargement (R* leaf-parent rule).

        The selection rule is the textbook one — least ``(overlap
        enlargement, area enlargement, area)`` — but the quadratic scan is
        dominated by entries that cannot win: a child whose MBR already
        contains ``rect`` has the exact key ``(0, 0, area)`` with no
        pairwise overlap work, and any partial overlap sum that exceeds
        the best seen so far can abort early because its per-sibling terms
        are non-negative.  Both cuts preserve the chosen child.
        """
        entries = node.entries
        best = None
        best_key = (math.inf, math.inf, math.inf)
        for entry in entries:
            enlarged = entry.rect.union(rect)
            if enlarged == entry.rect:
                # Containment: overlap and area enlargements are exactly 0.
                key = (0.0, 0.0, entry.rect.area)
                if key < best_key:
                    best_key = key
                    best = entry
                continue
            overlap_delta = 0.0
            aborted = False
            best_delta = best_key[0]
            for other in entries:
                if other is entry:
                    continue
                grown = (
                    enlarged.overlap_area(other.rect)
                    - entry.rect.overlap_area(other.rect)
                )
                if grown > 0.0:
                    overlap_delta += grown
                    if overlap_delta > best_delta:
                        aborted = True
                        break
            if aborted:
                continue
            key = (overlap_delta, entry.rect.enlargement(rect), entry.rect.area)
            if key < best_key:
                best_key = key
                best = entry
        return best

    def _overflow(self, node: Node, reinserted_levels: set[int]) -> None:
        """R* overflow treatment: forced reinsert once per level, else split."""
        if node is not self.root and node.level not in reinserted_levels:
            reinserted_levels.add(node.level)
            self._forced_reinsert(node, reinserted_levels)
        else:
            self._split(node, reinserted_levels)

    def _forced_reinsert(self, node: Node, reinserted_levels: set[int]) -> None:
        """Remove the farthest entries and re-insert them (R* §4.3)."""
        center = node.mbr().center
        node.entries.sort(
            key=lambda e: e.rect.center.squared_distance_to(center),
            reverse=True,
        )
        evicted = node.entries[: self.reinsert_count]
        node.entries = node.entries[self.reinsert_count :]
        self._shrink_upward(node)
        # Close reinsert: the entry nearest the old centre goes back first.
        for entry in reversed(evicted):
            if entry.child is None and node.is_leaf:
                # Drop stale table entry; re-registration happens on insert.
                self._leaf_of.pop(entry.oid, None)
            self._insert_at(entry, node.level, reinserted_levels)

    def _split(self, node: Node, reinserted_levels: set[int]) -> None:
        """Split an overflowing node with the R* topological split."""
        group_a, group_b = self._choose_split(node.entries)
        node.entries = group_a
        sibling = Node(is_leaf=node.is_leaf, level=node.level)
        sibling.entries = group_b
        self._adopt_entries(sibling)
        self._adopt_entries(node)

        if node is self.root:
            new_root = Node(is_leaf=False, level=node.level + 1)
            node_entry = Entry(node.mbr(), child=node)
            sibling_entry = Entry(sibling.mbr(), child=sibling)
            new_root.entries.append(node_entry)
            new_root.entries.append(sibling_entry)
            node.parent = new_root
            node.parent_entry = node_entry
            sibling.parent = new_root
            sibling.parent_entry = sibling_entry
            self.root = new_root
            return

        parent = node.parent
        node.parent_entry.rect = node.mbr()
        sibling_entry = Entry(sibling.mbr(), child=sibling)
        parent.entries.append(sibling_entry)
        sibling.parent = parent
        sibling.parent_entry = sibling_entry
        self._shrink_upward(parent)
        if len(parent.entries) > self.max_entries:
            self._overflow(parent, reinserted_levels)

    def _choose_split(
        self, entries: list[Entry]
    ) -> tuple[list[Entry], list[Entry]]:
        """R* split: axis by minimum margin sum, index by overlap/area."""
        m = self.min_entries
        best_axis_entries = None
        best_margin = math.inf
        for axis_sorts in (
            sorted(entries, key=lambda e: (e.rect.min_x, e.rect.max_x)),
            sorted(entries, key=lambda e: (e.rect.min_y, e.rect.max_y)),
        ):
            margin_sum = 0.0
            for k in range(m, len(axis_sorts) - m + 1):
                left = _mbr_of(axis_sorts[:k])
                right = _mbr_of(axis_sorts[k:])
                margin_sum += left.margin + right.margin
            if margin_sum < best_margin:
                best_margin = margin_sum
                best_axis_entries = axis_sorts

        best_key = (math.inf, math.inf)
        best_k = m
        for k in range(m, len(best_axis_entries) - m + 1):
            left = _mbr_of(best_axis_entries[:k])
            right = _mbr_of(best_axis_entries[k:])
            key = (left.overlap_area(right), left.area + right.area)
            if key < best_key:
                best_key = key
                best_k = k
        return best_axis_entries[:best_k], list(best_axis_entries[best_k:])

    def _adopt_entries(self, node: Node) -> None:
        """Point children / leaf-table entries of ``node`` back at it."""
        if node.is_leaf:
            for entry in node.entries:
                self._leaf_of[entry.oid] = node
        else:
            for entry in node.entries:
                entry.child.parent = node
                entry.child.parent_entry = entry

    # ------------------------------------------------------------------
    # Deletion machinery
    # ------------------------------------------------------------------
    def _condense(self, node: Node) -> None:
        """Handle a possibly-underflowing node after an entry removal."""
        orphans: list[tuple[Entry, int]] = []
        while node is not self.root:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries.remove(node.parent_entry)
                level = node.level
                orphans.extend((entry, level) for entry in node.entries)
                if node.is_leaf:
                    for entry in node.entries:
                        self._leaf_of.pop(entry.oid, None)
            else:
                node.parent_entry.rect = node.mbr()
            node = parent
        # Shrink the root when it lost all but one child.
        if not self.root.is_leaf and len(self.root.entries) == 1:
            self.root = self.root.entries[0].child
            self.root.parent = None
            self.root.parent_entry = None
        if not self.root.entries and not self.root.is_leaf:  # pragma: no cover
            self.root = Node(is_leaf=True, level=0)
        for entry, level in orphans:
            self._insert_at(entry, level, reinserted_levels=set())

    # ------------------------------------------------------------------
    # MBR maintenance
    # ------------------------------------------------------------------
    def _leaf_bound(self, leaf: Node) -> Rect | None:
        """The rectangle recorded for ``leaf`` in its parent (None for root)."""
        entry = leaf.parent_entry
        return None if entry is None else entry.rect

    def _extend_upward(self, node: Node, rect: Rect) -> None:
        """Grow ancestor entry MBRs so they cover a newly added ``rect``."""
        while node is not None:
            entry = node.parent_entry
            if entry is None or entry.rect.contains_rect(rect):
                return
            entry.rect = entry.rect.union(rect)
            node = node.parent

    def _shrink_upward(self, node: Node) -> None:
        """Recompute ancestor entry MBRs after entries were removed."""
        entry = node.parent_entry
        while entry is not None:
            mbr = node.mbr()
            if entry.rect == mbr:
                break
            entry.rect = mbr
            entry = node.parent.parent_entry
            node = node.parent

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on damage.

        Intended for tests: containment of child MBRs, level consistency,
        fill factors, parent pointers, and direct-access table coherence.
        """
        seen: dict[ObjectId, Rect] = {}
        assert self.root.parent_entry is None, "root has a parent entry"
        self._validate_node(self.root, None, seen)
        assert seen == self._rect_of, "rect table out of sync with tree"
        for oid, leaf in self._leaf_of.items():
            assert any(
                entry.oid == oid for entry in leaf.entries
            ), f"leaf table points {oid!r} at the wrong leaf"
            assert self._entry_of[oid] in leaf.entries, (
                f"entry table points {oid!r} at a dead entry"
            )
        assert set(self._leaf_of) == set(self._rect_of)
        assert set(self._entry_of) == set(self._rect_of)

    def _validate_node(
        self, node: Node, bound: Rect | None, seen: dict[ObjectId, Rect]
    ) -> None:
        assert len(node.entries) <= self.max_entries
        if node is not self.root:
            assert len(node.entries) >= self.min_entries, "underfull node"
        if node.is_leaf:
            assert node.level == 0
            for entry in node.entries:
                assert entry.child is None
                assert entry.oid not in seen, "duplicate object"
                seen[entry.oid] = entry.rect
                if bound is not None:
                    assert bound.contains_rect(entry.rect), "MBR violation"
        else:
            assert node.entries, "empty internal node"
            for entry in node.entries:
                child = entry.child
                assert child is not None and entry.oid is None
                assert child.parent is node, "broken parent pointer"
                assert child.parent_entry is entry, "broken parent entry"
                assert child.level == node.level - 1, "level skew"
                assert entry.rect.contains_rect(child.mbr()), "loose child MBR"
                self._validate_node(child, entry.rect, seen)


def _mbr_of(entries: Iterable[Entry]) -> Rect:
    """MBR of a non-empty collection of entries."""
    it = iter(entries)
    rect = next(it).rect
    for entry in it:
        rect = rect.union(entry.rect)
    return rect

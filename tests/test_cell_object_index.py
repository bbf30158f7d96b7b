"""The cell object index against the brute-force oracle, and in the server.

A hypothesis state machine drives ``CellObjectIndex`` and
``BruteForceIndex`` through the same insert / update / delete sequence
over worlds that include full-cell regions, points on cell boundaries
and one rounding step off them, regions spanning several cells (the
``wide`` list), and query points outside the space.  After every step
the index must validate; at query steps, ``nearest_iter`` must yield
exactly the brute-force sequence in ``(d2, oid)`` order, and
``search_entries`` the brute-force set.

The server-level tests pin the path a degraded object's widened region
takes: it lives in ``wide``, and both Algorithm 2's case-1 browse and a
range registration must still find it.
"""

import math

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.faults import ProbeTimeout
from repro.geometry import Point, Rect
from repro.index import CellObjectIndex, GridIndex
from repro.obs import MetricsRegistry
from tests.brute_index import BruteForceIndex

SPACES = (Rect(0.0, 0.0, 1.0, 1.0), Rect(-2.0, 1.0, 3.0, 4.5))
OIDS = st.integers(min_value=0, max_value=24)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def cell_index(m: int = 8) -> CellObjectIndex:
    """An empty object index over an ``m x m`` grid of the unit square."""
    return CellObjectIndex(GridIndex(m))


def load(pairs, m: int = 8) -> CellObjectIndex:
    """A fresh index over ``(oid, rect)`` pairs, as PRD's per-period rebuild."""
    index = cell_index(m)
    for oid, rect in pairs:
        index.insert(oid, rect)
    return index


def bounding(a: Point, b: Point) -> Rect:
    """The smallest rectangle holding both points."""
    return Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))


class CellIndexMachine(RuleBasedStateMachine):
    @initialize(m=st.integers(min_value=1, max_value=7),
                space=st.sampled_from(SPACES))
    def build(self, m, space):
        self.grid = GridIndex(m, space)
        self.index = CellObjectIndex(self.grid)
        self.oracle = BruteForceIndex()

    # -- world generation ------------------------------------------------
    def _coord(self, data, lo, hi, edges):
        """A coordinate: anywhere, on a cell edge, or one ulp beside it."""
        kind = data.draw(st.sampled_from(("any", "edge", "below", "above")))
        if kind == "any":
            return lo + data.draw(unit) * (hi - lo)
        edge = edges[data.draw(st.integers(0, len(edges) - 1))]
        if kind == "edge":
            return edge
        return math.nextafter(edge, -math.inf if kind == "below" else math.inf)

    def _edges(self, axis):
        grid, space = self.grid, self.grid.space
        if axis == 0:
            return [space.min_x + i * grid._cell_w for i in range(grid.m + 1)]
        return [space.min_y + j * grid._cell_h for j in range(grid.m + 1)]

    def _point(self, data, margin=0.0):
        space = self.grid.space
        pad_x, pad_y = margin * space.width, margin * space.height
        x = self._coord(data, space.min_x - pad_x, space.max_x + pad_x,
                        self._edges(0))
        y = self._coord(data, space.min_y - pad_y, space.max_y + pad_y,
                        self._edges(1))
        return Point(x, y)

    def _region(self, data):
        grid = self.grid
        kind = data.draw(st.sampled_from(("cell", "point", "box", "wide")))
        if kind == "cell":
            i = data.draw(st.integers(0, grid.m - 1))
            j = data.draw(st.integers(0, grid.m - 1))
            return grid.cell_rect((i, j))
        p = self._point(data)
        if kind == "point":
            return Rect.from_point(p)
        a = self._point(data)
        if kind == "wide":
            return bounding(p, a)
        # Clipped into p's cell, as the server's regions are.
        cell = grid.cell_rect(grid.cell_of(p))

        def clip(c):
            return Point(min(max(c.x, cell.min_x), cell.max_x),
                         min(max(c.y, cell.min_y), cell.max_y))

        return bounding(clip(p), clip(a))

    # -- mutations -------------------------------------------------------
    @rule(oid=OIDS, data=st.data())
    def insert(self, oid, data):
        if oid in self.oracle:
            return
        region = self._region(data)
        self.index.insert(oid, region)
        self.oracle.insert(oid, region)

    @precondition(lambda self: len(self.oracle) > 0)
    @rule(data=st.data())
    def update(self, data):
        oid = data.draw(st.sampled_from(sorted(self.oracle._rects)))
        region = self._region(data)
        self.index.update(oid, region)
        self.oracle.update(oid, region)

    @precondition(lambda self: len(self.oracle) > 0)
    @rule(data=st.data())
    def delete(self, data):
        oid = data.draw(st.sampled_from(sorted(self.oracle._rects)))
        self.index.delete(oid)
        self.oracle.delete(oid)

    # -- checks ----------------------------------------------------------
    @rule(data=st.data(), excluded=st.frozensets(OIDS, max_size=6))
    def nearest(self, data, excluded):
        q = self._point(data, margin=0.5)
        for exclude in (None, excluded.__contains__):
            got = [(oid, dist) for oid, _, dist in
                   self.index.nearest_iter(q, exclude=exclude)]
            dists = [dist for _, dist in got]
            assert dists == sorted(dists), "browse yielded out of order"
            want = [(oid, dist) for oid, _, dist in
                    self.oracle.nearest_iter(q, exclude=exclude)]
            # One key, ``(d2, oid)``: the browse is the oracle's sort.
            assert got == want

    @rule(data=st.data())
    def search(self, data):
        rect = bounding(self._point(data, margin=0.3),
                        self._point(data, margin=0.3))
        got = list(self.index.search_entries(rect))
        assert len(got) == len(set(got))
        assert set(got) == set(self.oracle.search_entries(rect))

    @invariant()
    def consistent(self):
        if not hasattr(self, "index"):
            return
        self.index.validate()
        assert len(self.index) == len(self.oracle)
        assert sorted(self.index.all_entries(), key=repr) == sorted(
            self.oracle.all_entries(), key=repr
        )
        for oid, region in self.oracle.all_entries():
            assert self.index.rect_of(oid) == region


CellIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestCellIndexAgainstBruteForce = CellIndexMachine.TestCase


def test_browse_starts_in_the_cell_that_holds_q():
    """Truncation can put ``q`` one cell off; the browse must not start there.

    At M = 6, ``cell_of`` sends x = 0.5 - 1 ulp to column 3, whose closed
    rectangle starts at 0.5.  Started there, the browse would pop a wide
    region 1 ulp away before the column-2 region that holds ``q``.
    """
    grid = GridIndex(6)
    q = Point(math.nextafter(0.5, 0.0), 0.5)
    assert grid.cell_of(q) == (3, 3)
    assert not grid.cell_rect((3, 3)).contains_point(q)
    index = CellObjectIndex(grid)
    index.insert("wide", Rect(0.5, 0.4, 0.9, 0.6))
    index.insert("holds q", Rect(0.4, 0.5, q.x, 0.6))
    assert "wide" in index.wide and "holds q" not in index.wide
    assert [(oid, d2) for oid, _, d2 in index.nearest_iter(q)] == [
        ("holds q", 0.0), ("wide", (0.5 - q.x) * (0.5 - q.x)),
    ]


# ----------------------------------------------------------------------
# In the server: a degraded object's widened region lives in ``wide``

#: Cuts oid 3's first safe region ([0.34, 0.36] x [0.5, 0.52]), so
#: registering it probes oid 3 — which the world below lets time out.
CUTTING_RECT = Rect(0.3, 0.4, 0.355, 0.6)


def _degraded_world():
    """Eight objects on y = 0.5; oid 3 unreachable and degraded at t = 1."""
    registry = MetricsRegistry()
    positions = {oid: Point(0.1 * oid + 0.05, 0.5) for oid in range(8)}
    down = {3}

    def oracle(oid):
        if oid in down:
            raise ProbeTimeout(oid)
        return positions[oid]

    server = DatabaseServer(
        position_oracle=oracle,
        config=ServerConfig(probe_retries=0, degraded_max_speed=0.02),
        metrics=registry,
    )
    server.load_objects(positions.items())
    server.register_query(RangeQuery(CUTTING_RECT, query_id="cut"), time=1.0)
    assert server.is_degraded(3)
    # The reachability box spans four cells: no home cell holds it.
    assert 3 in server.object_index.wide
    assert registry.value_of("object_index.wide") == 1
    server.validate()
    return positions, down, server


def test_range_registration_finds_a_wide_region():
    positions, down, server = _degraded_world()
    down.clear()
    positions[3] = Point(0.331, 0.5)  # within its reachability box
    # Meets oid 3's widened box only in column 16 ([0.32, 0.34]), never
    # the cell its centre lies in.
    query = RangeQuery(Rect(0.325, 0.45, 0.335, 0.55), query_id="left")
    outcome = server.register_query(query, time=1.5)
    assert 3 in outcome.probed
    assert query.results == {3}
    assert not server.is_degraded(3)
    server.validate()


def test_knn_case_one_browse_finds_a_wide_region():
    positions, down, server = _degraded_world()
    query = KNNQuery(Point(0.25, 0.5), k=1, query_id="nn")
    server.register_query(query, time=1.0)
    assert query.results == [2]
    assert 3 in server.object_index.wide
    down.clear()
    positions[3] = Point(0.34, 0.5)  # within its reachability box
    # The member leaves its circle: case 1 re-runs the browse, whose
    # nearest candidate is oid 3's widened box (0.08 away at t = 2).
    positions[2] = Point(0.25, 0.9)
    outcome = server.handle_location_update(2, positions[2], 2.0)
    assert server.metrics.value_of("server.reevaluations.by_case.knn_leaves") == 1
    assert 3 in outcome.probed
    assert query.results == [3]
    assert not server.is_degraded(3)
    server.validate()

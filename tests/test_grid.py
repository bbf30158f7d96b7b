"""Tests for the grid-based query index (Section 3.3)."""

import math
import random
from array import array

import pytest

from repro.core import DatabaseServer, ServerConfig
from repro.core.queries import KNNQuery, RangeQuery
from repro.geometry import Point, Rect
from repro.index import GridIndex
from repro.kernels import Kernels, ops


def make_range(x, y, size=0.1, qid=None):
    return RangeQuery(Rect(x, y, x + size, y + size), query_id=qid)


class TestCellArithmetic:
    def setup_method(self):
        self.grid = GridIndex(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridIndex(0)
        with pytest.raises(ValueError):
            GridIndex(5, Rect(0, 0, 0, 1))

    def test_cell_of_interior(self):
        assert self.grid.cell_of(Point(0.05, 0.05)) == (0, 0)
        assert self.grid.cell_of(Point(0.95, 0.15)) == (9, 1)

    def test_cell_of_clamps_outside(self):
        assert self.grid.cell_of(Point(-1, 2)) == (0, 9)
        assert self.grid.cell_of(Point(1.0, 1.0)) == (9, 9)

    def test_cell_rect(self):
        rect = self.grid.cell_rect((2, 3))
        assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == pytest.approx(
            (0.2, 0.3, 0.3, 0.4)
        )
        with pytest.raises(IndexError):
            self.grid.cell_rect((10, 0))

    def test_cell_rect_of_point_contains_point(self):
        p = Point(0.42, 0.77)
        assert self.grid.cell_rect_of_point(p).contains_point(p)

    def test_cells_overlapping(self):
        cells = set(self.grid.cells_overlapping(Rect(0.05, 0.05, 0.25, 0.15)))
        assert cells == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}

    def test_nonuniform_space(self):
        grid = GridIndex(4, Rect(0, 0, 2, 1))
        assert grid.cell_rect((0, 0)) == Rect(0, 0, 0.5, 0.25)
        assert grid.cell_of(Point(1.9, 0.9)) == (3, 3)


class TestRegistration:
    def setup_method(self):
        self.grid = GridIndex(10)

    def test_insert_and_lookup(self):
        query = make_range(0.42, 0.42, 0.05)
        self.grid.insert(query)
        assert query in self.grid
        assert len(self.grid) == 1
        assert query in self.grid.queries_at(Point(0.44, 0.44))
        assert query not in self.grid.queries_at(Point(0.1, 0.1))

    def test_duplicate_insert_rejected(self):
        query = make_range(0.1, 0.1)
        self.grid.insert(query)
        with pytest.raises(KeyError):
            self.grid.insert(query)

    def test_remove(self):
        query = make_range(0.1, 0.1)
        self.grid.insert(query)
        self.grid.remove(query)
        assert query not in self.grid
        assert not self.grid.queries_at(Point(0.15, 0.15))
        with pytest.raises(KeyError):
            self.grid.remove(query)

    def test_query_spanning_cells(self):
        query = make_range(0.05, 0.05, 0.2)
        self.grid.insert(query)
        for p in (Point(0.06, 0.06), Point(0.2, 0.2), Point(0.24, 0.06)):
            assert query in self.grid.queries_at(p)

    def test_knn_circle_precision(self):
        """Buckets are filtered by the true circle, not its bounding box."""
        query = KNNQuery(Point(0.55, 0.55), k=1)
        query.radius = 0.049
        self.grid.insert(query)
        # Cell (6, 6) overlaps the bounding box corner but not the circle.
        assert query not in self.grid.queries_in_cell((6, 6))
        assert query in self.grid.queries_in_cell((5, 5))

    def test_update_after_quarantine_change(self):
        query = KNNQuery(Point(0.35, 0.35), k=1)
        query.radius = 0.01
        self.grid.insert(query)
        assert query not in self.grid.queries_at(Point(0.65, 0.35))
        query.radius = 0.35
        self.grid.update(query)
        assert query in self.grid.queries_at(Point(0.65, 0.35))

    def test_update_unregistered_raises(self):
        with pytest.raises(KeyError):
            self.grid.update(make_range(0.1, 0.1))

    def test_update_without_movement_is_noop(self):
        query = make_range(0.3, 0.3, 0.05)
        self.grid.insert(query)
        self.grid.update(query)
        assert query in self.grid.queries_at(Point(0.32, 0.32))


class TestCandidateQueries:
    def setup_method(self):
        self.grid = GridIndex(10)
        self.q_a = make_range(0.11, 0.11, 0.05, "a")
        self.q_b = make_range(0.81, 0.81, 0.05, "b")
        self.grid.insert(self.q_a)
        self.grid.insert(self.q_b)

    def test_same_cell_move(self):
        found = self.grid.candidate_queries(Point(0.12, 0.12), Point(0.13, 0.13))
        assert self.q_a in found and self.q_b not in found

    def test_cross_cell_move_unions_buckets(self):
        found = self.grid.candidate_queries(Point(0.12, 0.12), Point(0.82, 0.82))
        assert {self.q_a, self.q_b} <= set(found)

    def test_new_object(self):
        found = self.grid.candidate_queries(Point(0.85, 0.85), None)
        assert self.q_b in found and self.q_a not in found

    def test_all_queries(self):
        assert self.grid.all_queries() == frozenset({self.q_a, self.q_b})

    def test_size_accounting(self):
        assert self.grid.approximate_size_bytes() > 0


class TestInternedCellIds:
    """``cell_of`` hands out one shared tuple per cell, never a fresh one,
    so each object's held cell (the object table's ``cell`` column) costs
    a pointer."""

    def setup_method(self):
        self.grid = GridIndex(10)

    def test_points_in_one_cell_share_one_id(self):
        cell_of = self.grid.cell_of
        assert cell_of(Point(0.21, 0.31)) is cell_of(Point(0.29, 0.39))
        # Clamped points outside the space share the edge cell's id.
        assert cell_of(Point(-1.0, 2.0)) is cell_of(Point(0.01, 0.95))
        assert cell_of(Point(5.0, 5.0)) is cell_of(Point(1.0, 1.0))
        # One ulp below a cell edge lands in the cell below it, by the
        # same id as that cell's centre.
        edge = self.grid.cell_rect((3, 0)).min_x
        below = Point(math.nextafter(edge, -math.inf), 0.05)
        cell = cell_of(below)
        assert cell is cell_of(self.grid.cell_rect(cell).center)
        assert cell_of(Point(edge, 0.05)) is not cell

    @pytest.mark.parametrize("kernels, min_rows", [
        (None, ops.MIN_ROWS), (Kernels(), 1), (Kernels(), 10**9),
    ], ids=["no-kernels", "numpy", "python"])
    def test_cells_of_points_returns_the_cell_of_objects(
        self, kernels, min_rows, monkeypatch
    ):
        # ``MIN_ROWS`` 1 forces the vector pass, 10**9 the scalar loop.
        monkeypatch.setattr(ops, "MIN_ROWS", min_rows)
        grid = GridIndex(10, kernels=kernels)
        rng = random.Random(5)
        points = [
            Point(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))
            for _ in range(500)
        ]
        points.append(Point(math.nextafter(grid.cell_rect((3, 3)).min_x, 0.0),
                            0.5))
        cells = grid.cells_of_points(points)
        assert len(cells) == len(points)
        for p, cell in zip(points, cells):
            assert cell is grid.cell_of(p)
        # The column form, as bootstrap calls it: the flat cell numbers
        # map back to the very ids ``cell_of`` interns.
        columns = grid.cells_of_xy(
            array("d", [p.x for p in points]), array("d", [p.y for p in points])
        )
        assert all(a is b for a, b in zip(columns, cells))
        assert len(columns) == len(cells)

    def test_bootstrap_holds_at_most_m_squared_cell_objects(self):
        m = 8
        rng = random.Random(9)
        world = {
            i: Point(rng.random(), rng.random()) for i in range(2_000)
        }
        server = DatabaseServer(world.__getitem__, ServerConfig(grid_m=m))
        server.bootstrap(world.items(), [
            RangeQuery(Rect(0.1, 0.1, 0.3, 0.3), query_id="r"),
            KNNQuery(Point(0.7, 0.6), 5, query_id="k"),
        ])

        def check():
            grid, table = server.query_index, server._objects
            held = [table.cell[row] for _, row in table.row_items()]
            assert len({id(cell) for cell in held}) <= m * m
            for _, row in table.row_items():
                position = Point(table.x[row], table.y[row])
                assert table.cell[row] is grid.cell_of(position)

        check()
        # Reports through the batch loop (certified no-ops included,
        # many crossing a cell edge) and one by one.
        for tick in range(1, 4):
            movers = rng.sample(sorted(world), 600)
            for oid in movers:
                p = world[oid]
                world[oid] = Point(
                    min(max(p.x + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                    min(max(p.y + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                )
            server.handle_location_updates(
                [(oid, world[oid]) for oid in movers], float(tick)
            )
            check()
        oid = movers[0]
        world[oid] = Point(0.95, 0.05)
        server.handle_location_update(oid, world[oid], 4.0)
        check()
        server.validate()

"""Property-based cross-checks for the columnar kernels (repro.kernels).

Every kernel runs twice — once on the NumPy batch path (forced by
patching ``ops.MIN_ROWS`` to 1) and once on the pure-Python scalar path
(``ops.MIN_ROWS`` patched to 10**9) — and the outputs must be *exactly*
equal: same booleans, same float bit patterns, same selected rows.  The
strategies deliberately include the nasty inputs the equivalence
guarantee hinges on: points lying exactly on rectangle edges, duplicated
points producing exact distance ties, and degenerate (zero-area)
rectangles.  Point-in-rect containment has no kernel: its checks run
``GroundTruth``'s closed-rect range answer over parked points against a
scalar ``Rect.contains_point`` scan.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.batch import batch_range_safe_region
from repro.core.evaluation import evaluate_knn
from repro.geometry import Point, Rect
from repro.index.brute import BruteForceIndex
from repro.kernels import Kernels, ops
from repro.obs import MetricsRegistry
from repro.simulation import GroundTruth
from tests.test_geometry import overlaps_open
from tests.test_simulation import Parked


class _Forced:
    """A :class:`Kernels` whose every call runs with ``ops.MIN_ROWS`` patched.

    ``MIN_ROWS`` is a module constant, so the two paths are chosen per
    call rather than per instance.
    """

    def __init__(self, min_rows):
        self._min_rows = min_rows
        self._kernels = Kernels()

    def __getattr__(self, name):
        op = getattr(self._kernels, name)

        def call(*args):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ops, "MIN_ROWS", self._min_rows)
                return op(*args)

        return call


#: Every call vectorises.
NP_K = _Forced(1)
#: Every call runs the scalar loop.
PY_K = _Forced(10**9)

coord = st.floats(min_value=-2.0, max_value=3.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


@st.composite
def point_columns(draw, min_size=1, max_size=40):
    points = draw(
        st.lists(st.tuples(coord, coord), min_size=min_size, max_size=max_size)
    )
    return [p[0] for p in points], [p[1] for p in points]


@st.composite
def rect_columns(draw, min_size=1, max_size=20):
    rs = draw(st.lists(rects(), min_size=min_size, max_size=max_size))
    return (
        [r.min_x for r in rs],
        [r.min_y for r in rs],
        [r.max_x for r in rs],
        [r.max_y for r in rs],
    )


def _with_boundary_points(xs, ys, rect):
    """Append the rect's corners and edge midpoints to the columns."""
    mx = (rect.min_x + rect.max_x) / 2.0
    my = (rect.min_y + rect.max_y) / 2.0
    extra = [
        (rect.min_x, rect.min_y), (rect.max_x, rect.max_y),
        (rect.min_x, rect.max_y), (rect.max_x, rect.min_y),
        (mx, rect.min_y), (mx, rect.max_y),
        (rect.min_x, my), (rect.max_x, my),
    ]
    return xs + [e[0] for e in extra], ys + [e[1] for e in extra]


def _d2(xs, ys, qx, qy):
    """Squared distances the way both kernel paths compute them."""
    return [(x - qx) * (x - qx) + (y - qy) * (y - qy) for x, y in zip(xs, ys)]


def _truth_range(xs, ys, rect):
    """The truth's answer to one range query over points parked at rows."""
    world = {row: Parked(Point(x, y)) for row, (x, y) in enumerate(zip(xs, ys))}
    truth = GroundTruth(world, [RangeQuery(rect, query_id="r")])
    return truth.evaluate_at(0.0)["r"]


class TestPointKernels:
    @settings(max_examples=120)
    @given(point_columns(), rects())
    def test_points_in_rect_backends_agree(self, columns, rect):
        xs, ys = _with_boundary_points(*columns, rect)
        assert _truth_range(xs, ys, rect) == frozenset(
            row for row, (x, y) in enumerate(zip(xs, ys))
            if rect.contains_point(Point(x, y))
        )

    @settings(max_examples=120)
    @given(point_columns(), rects())
    def test_boundary_points_count_as_inside(self, columns, rect):
        xs, ys = _with_boundary_points(*columns, rect)
        # The eight appended rows sit exactly on the closed boundary.
        assert set(range(len(xs) - 8, len(xs))) <= _truth_range(xs, ys, rect)

    @settings(max_examples=120)
    @given(point_columns(), coord, coord)
    def test_squared_dists_bit_identical(self, columns, qx, qy):
        # A full ranking (k = n) orders every row by its squared
        # distance, so both paths must compute each ``dx*dx + dy*dy``
        # to the same bits as the reference below.
        xs, ys = columns
        n = len(xs)
        a = NP_K.top_k_rows(xs, ys, qx, qy, n)
        assert a == PY_K.top_k_rows(xs, ys, qx, qy, n)
        d2 = _d2(xs, ys, qx, qy)
        assert a == sorted(range(n), key=lambda i: (d2[i], i))
        assert all(type(row) is int for row in a)

    @settings(max_examples=120)
    @given(point_columns(), coord, coord, st.integers(min_value=0, max_value=50))
    def test_top_k_backends_agree(self, columns, qx, qy, k):
        xs, ys = columns
        assert NP_K.top_k_rows(xs, ys, qx, qy, k) == PY_K.top_k_rows(xs, ys, qx, qy, k)

    @settings(max_examples=120)
    @given(point_columns(max_size=15), coord, coord, st.integers(min_value=1, max_value=20))
    def test_top_k_ties_break_by_row(self, columns, qx, qy, k):
        # Duplicate every point once: exact distance ties everywhere.
        xs, ys = columns
        xs, ys = xs + xs, ys + ys
        top = NP_K.top_k_rows(xs, ys, qx, qy, k)
        assert top == PY_K.top_k_rows(xs, ys, qx, qy, k)
        d2 = _d2(xs, ys, qx, qy)
        keys = [(d2[row], row) for row in top]
        assert keys == sorted(keys)  # ordered by (d2, row)
        assert keys == sorted((d, i) for i, d in enumerate(d2))[: len(top)]

    def test_top_k_known_tie_case(self):
        xs, ys = [0.0, 1.0, -1.0, 1.0, 0.5], [1.0, 0.0, 0.0, 0.0, 0.5]
        # d2 from origin: 1, 1, 1, 1, 0.5 — row 4 first, then ties by row.
        for k in (NP_K, PY_K):
            assert k.top_k_rows(xs, ys, 0.0, 0.0, 3) == [4, 0, 1]
            assert k.top_k_rows(xs, ys, 0.0, 0.0, 99) == [4, 0, 1, 2, 3]
            assert k.top_k_rows(xs, ys, 0.0, 0.0, 0) == []
            assert k.top_k_rows([], [], 0.0, 0.0, 3) == []

    @settings(max_examples=120)
    @given(
        point_columns(),
        st.integers(min_value=1, max_value=30),
    )
    def test_cells_of_backends_agree(self, columns, m):
        xs, ys = columns
        cell_w = 1.0 / m
        cell_h = 1.0 / m
        a = NP_K.cells_of(xs, ys, 0.0, 0.0, cell_w, cell_h, m)
        assert a == PY_K.cells_of(xs, ys, 0.0, 0.0, cell_w, cell_h, m)
        assert all(0 <= c < m * m for c in a)


class TestRectKernels:
    @settings(max_examples=120)
    @given(rect_columns(), rects())
    def test_intersecting_and_contained_agree(self, columns, rect):
        assert NP_K.rects_contained_in(*columns, rect) == \
            PY_K.rects_contained_in(*columns, rect)
        stored = [Rect(*row) for row in zip(*columns)]
        index = BruteForceIndex()
        for oid, region in enumerate(stored):
            index.insert(oid, region)
        assert list(index.search_entries(rect)) == [
            (oid, region) for oid, region in enumerate(stored)
            if region.intersects(rect)
        ]

    @settings(max_examples=120)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=8, max_value=20))
    def test_quadrant_corners_agree(self, seed, count):
        # The batch safe region (Section 5.3) over as many obstacles as
        # ``MIN_ROWS`` once vectorised: it contains ``p``, stays in the
        # cell and overlaps no open obstacle.
        rng = random.Random(seed)
        cell = Rect(0.0, 0.0, 1.0, 1.0)
        p = Point(rng.random(), rng.random())
        obstacles = []
        while len(obstacles) < count:
            x, y = rng.uniform(-0.1, 1.0), rng.uniform(-0.1, 1.0)
            w, h = rng.uniform(0.01, 0.3), rng.uniform(0.01, 0.3)
            obstacle = Rect(x, y, x + w, y + h)
            if not (x < p.x < x + w and y < p.y < y + h):
                obstacles.append(obstacle)
        region = batch_range_safe_region(p, cell, obstacles)
        assert region.contains_point(p, eps=1e-12)
        assert cell.contains_rect(region)
        for obstacle in obstacles:
            assert not overlaps_open(region, obstacle)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=8, max_value=12))
    def test_mask_leq_agrees(self, seed, k):
        # Unordered kNN holds up to k candidates at once; its held-set
        # partition must still return the brute-force k nearest.
        rng = random.Random(seed)
        q = Point(rng.random(), rng.random())
        positions = {}
        index = BruteForceIndex()
        for oid in range(40):
            p = Point(rng.random(), rng.random())
            positions[oid] = p
            rx, ry = rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)
            index.insert(oid, Rect(
                p.x - rng.uniform(0.0, rx), p.y - rng.uniform(0.0, ry),
                p.x + rng.uniform(0.0, rx), p.y + rng.uniform(0.0, ry),
            ))
        outcome = evaluate_knn(
            index, q, k, positions.__getitem__, order_sensitive=False
        )
        got = sorted(q.distance_to(positions[oid]) for oid in outcome.results)
        want = sorted(q.distance_to(p) for p in positions.values())[:k]
        assert got == want


UNIT_SQUARE = Rect(0.0, 0.0, 1.0, 1.0)


def _contained_columns(n):
    """``n`` stored rects, alternately inside and outside the unit square."""
    rs = [
        Rect(0.1, 0.1, 0.2, 0.2) if i % 2 else Rect(0.5, 0.5, 1.5, 0.9)
        for i in range(n)
    ]
    columns = (
        [r.min_x for r in rs], [r.min_y for r in rs],
        [r.max_x for r in rs], [r.max_y for r in rs],
    )
    return columns, [UNIT_SQUARE.contains_rect(r) for r in rs]


class TestBackendPlumbing:
    def test_min_rows_cutoff_falls_back(self, monkeypatch):
        monkeypatch.setattr(ops, "MIN_ROWS", 8)
        registry = MetricsRegistry()
        kernels = Kernels(metrics=registry)
        for n in (2, 8):                           # below, then at cutoff
            columns, _ = _contained_columns(n)
            kernels.rects_contained_in(*columns, UNIT_SQUARE)
        counters = registry.to_dict()["counters"]
        assert counters["kernels.fallback_calls"] == 1
        assert counters["kernels.batch_calls"] == 1
        assert counters["kernels.rows_scanned"] == 8

    @pytest.mark.parametrize("min_rows", [1, 2, 8, 17])
    def test_min_rows_exact_cutoff_vectorises(self, min_rows, monkeypatch):
        """The cutoff is inclusive: exactly ``MIN_ROWS`` rows vectorise.

        Pins the comparison in ``Kernels._batch`` (``n >= MIN_ROWS``) on
        both sides of the boundary, with the per-call row counters —
        ``n == MIN_ROWS`` must batch, ``n == MIN_ROWS - 1`` must fall
        back, and the results must be identical either way.
        """
        monkeypatch.setattr(ops, "MIN_ROWS", min_rows)
        registry = MetricsRegistry()
        kernels = Kernels(metrics=registry)
        columns, want = _contained_columns(min_rows)
        assert kernels.rects_contained_in(*columns, UNIT_SQUARE) == want
        counters = registry.to_dict()["counters"]
        assert counters["kernels.batch_calls"] == 1
        assert counters["kernels.rows_scanned"] == min_rows
        assert counters.get("kernels.fallback_calls", 0) == 0
        assert counters.get("kernels.fallback_rows", 0) == 0

        if min_rows > 1:
            columns, want = _contained_columns(min_rows - 1)
            assert kernels.rects_contained_in(*columns, UNIT_SQUARE) == want
            counters = registry.to_dict()["counters"]
            assert counters["kernels.batch_calls"] == 1  # unchanged
            assert counters["kernels.fallback_calls"] == 1
            assert counters["kernels.fallback_rows"] == min_rows - 1

    def test_fallback_rows_accumulate_per_call(self, monkeypatch):
        monkeypatch.setattr(ops, "MIN_ROWS", 8)
        registry = MetricsRegistry()
        kernels = Kernels(metrics=registry)
        for n in (2, 3, 9):  # two scalar calls (5 rows), one vectorised
            columns, _ = _contained_columns(n)
            kernels.rects_contained_in(*columns, UNIT_SQUARE)
        counters = registry.to_dict()["counters"]
        assert counters["kernels.fallback_calls"] == 2
        assert counters["kernels.fallback_rows"] == 5
        assert counters["kernels.rows_scanned"] == 9


class TestPositionStore:
    """The held positions that replaced the columnar position store.

    ``DatabaseServer.positions`` answers ``(x, y)`` from the object
    table itself, and each row holds its position's cell; both must
    follow add / update / remove exactly like a dict.
    """

    @staticmethod
    def _server(model):
        return DatabaseServer(
            lambda oid: Point(*model[oid]), ServerConfig(grid_m=4)
        )

    @staticmethod
    def _check(server, model):
        grid = server.query_index
        assert server.object_count == len(model)
        assert sorted(server._objects) == sorted(model)
        for oid, expected in model.items():
            assert server.positions.get(oid) == expected
            state = server._objects[oid]
            assert state.cell is grid.cell_of(Point(*expected))
        server.validate()

    def test_set_move_discard_swap_remove(self):
        model = {}
        server = self._server(model)
        for i in range(5):
            model[f"o{i}"] = (i * 0.125, i * 0.25)
            server.add_object(f"o{i}", Point(*model[f"o{i}"]), time=0.0)
        self._check(server, model)
        assert server.positions.get("o3") == (0.375, 0.75)

        model["o3"] = (0.9, 0.9)                   # move across cells
        server.handle_location_update("o3", Point(0.9, 0.9), time=1.0)
        assert server.positions.get("o3") == (0.9, 0.9)
        assert server._objects["o3"].cell == (3, 3)
        self._check(server, model)

        server.remove_object("o1")                 # remove
        del model["o1"]
        assert server.positions.get("o1") is None
        assert "o1" not in server
        with pytest.raises(KeyError):              # not idempotent
            server.remove_object("o1")
        self._check(server, model)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=9),
                  st.booleans(), unit, unit),
        max_size=60,
    ))
    def test_store_matches_dict_model(self, ops):
        model = {}
        server = self._server(model)
        server.register_query(KNNQuery(Point(0.5, 0.5), 2), time=0.0)
        clock = 0.0
        for oid, insert, x, y in ops:
            clock += 1.0
            if insert:
                model[oid] = (x, y)
                if oid in server:
                    server.handle_location_update(oid, Point(x, y), clock)
                else:
                    server.add_object(oid, Point(x, y), clock)
            elif oid in server:
                server.evict_object(oid, clock)
                del model[oid]
            self._check(server, model)

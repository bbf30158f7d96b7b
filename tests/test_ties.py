"""One exact tie per site: every ranking and boundary obeys one rule.

Objects rank by ``(squared distance, oid)`` and areas are closed
(``repro.geometry.ties``).  Each test below builds an *exact* tie — equal
squared distances, or a point exactly on an edge or circle — at one of
the sites that apply the rule, and checks that the site decides it by
the id, never by insertion, registration, push or shard order.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.evaluation import evaluate_knn
from repro.core.extensions import CircleRangeQuery
from repro.core.reevaluation import reevaluate_knn
from repro.geometry import Point, Rect
from repro.geometry.ties import UnorderableIds, top_k_rows
from repro.index.cells import CellObjectIndex
from repro.index.grid import GridIndex
from repro.obs import MetricsRegistry
from repro.sharding import ShardedServer
from repro.simulation.truth import GroundTruth
from tests.test_geometry import near_unit, point_columns

Q = Point(0.5, 0.5)

#: Equal squared distances from ``Q`` (dx, dy in {0, 0.25}: exact), in
#: different cells of a 4 x 4 grid, plus two identical points and one
#: region spanning cells (kept in ``wide``).
TIED = {
    3: Rect.from_point(Point(0.25, 0.5)),
    1: Rect.from_point(Point(0.75, 0.5)),
    4: Rect.from_point(Point(0.5, 0.25)),
    0: Rect.from_point(Point(0.5, 0.75)),
    2: Rect.from_point(Point(0.5, 0.75)),
    5: Rect(0.1, 0.1, 0.9, 0.2),
    6: Rect.from_point(Point(0.9, 0.9)),
}


def _index(order):
    index = CellObjectIndex(GridIndex(4))
    for oid in order:
        index.insert(oid, TIED[oid])
    return index


def _probe(oid):
    region = TIED[oid]
    return Point(region.min_x, region.min_y)


def _no_probe(oid):
    raise AssertionError(f"{oid!r} needs no probe: its region is a point")


class TestBrowse:
    def test_nearest_iter_ignores_insertion_order(self):
        orders = (sorted(TIED), sorted(TIED, reverse=True), [2, 5, 0, 6, 3, 1, 4])
        runs = [list(_index(order).nearest_iter(Q)) for order in orders]
        assert runs[0] == runs[1] == runs[2]
        assert [oid for oid, _, _ in runs[0]] == [0, 1, 2, 3, 4, 5, 6]


class TestEvaluation:
    @pytest.mark.parametrize("order_sensitive", [True, False])
    def test_knn_tie_confirms_in_key_order(self, order_sensitive):
        for order in (sorted(TIED), sorted(TIED, reverse=True)):
            outcome = evaluate_knn(
                _index(order), Q, 3, _probe, order_sensitive=order_sensitive
            )
            assert outcome.results == [0, 1, 2]
            # The radius is the tie's distance: both sides on the circle.
            assert outcome.radius == 0.25

    def test_region_tied_with_a_point_is_probed(self):
        # ``b`` is known only by a region whose far corner ties ``a``'s
        # point; ``a`` has the smaller id, so only a probe of ``b`` can
        # confirm either.
        index = CellObjectIndex(GridIndex(4))
        index.insert("b", Rect(0.5, 0.5, 0.75, 0.5))
        index.insert("a", Rect.from_point(Point(0.25, 0.5)))
        probed = []

        def probe(oid):
            probed.append(oid)
            return Point(0.75, 0.5)

        outcome = evaluate_knn(index, Q, 1, probe)
        assert probed == ["b"]
        assert outcome.results == ["a"]

    def test_reevaluate_knn_enters_at_a_tie(self):
        # Object 7 reports exactly onto member 9's distance: the key
        # ranks it first, so 9 drops out.
        index = CellObjectIndex(GridIndex(4))
        index.insert(1, Rect.from_point(Point(0.5, 0.625)))
        index.insert(9, Rect.from_point(Point(0.75, 0.5)))
        index.insert(7, Rect.from_point(Point(0.9, 0.9)))
        query = KNNQuery(Q, 2)
        query.evaluate_over(index, _no_probe)
        assert query.results == [1, 9]
        p = Point(0.25, 0.5)
        assert query.is_affected_by(7, p)
        index.update(7, Rect.from_point(p))
        outcome = reevaluate_knn(query, 7, p, index, _no_probe, index.rect_of)
        assert outcome.case == "knn_enters"
        assert query.results == [1, 7]

    def test_reevaluate_knn_member_onto_the_circle(self):
        # Non-member 7 sits on the circle; member 9 moves onto it too,
        # and the smaller id takes the slot.
        index = CellObjectIndex(GridIndex(4))
        index.insert(7, Rect.from_point(Point(0.25, 0.5)))
        index.insert(9, Rect.from_point(Point(0.625, 0.5)))
        query = KNNQuery(Q, 1)
        query.evaluate_over(index, _no_probe)
        assert query.results == [9]
        query.radius = 0.25  # still conservative: 7 is on, not inside
        p = Point(0.5, 0.75)
        assert query.is_affected_by(9, p)
        index.update(9, Rect.from_point(p))
        outcome = reevaluate_knn(query, 9, p, index, _no_probe, index.rect_of)
        assert outcome.changed
        assert query.results == [7]
        assert query.radius == 0.25


class TestTruth:
    def test_ids_registered_out_of_order(self):
        class Still:
            def __init__(self, p):
                self.p = p

            def position_at(self, t):
                return self.p

        trajectories = {
            "b": Still(Point(0.75, 0.5)),
            "c": Still(Point(0.9, 0.9)),
            "a": Still(Point(0.25, 0.5)),
        }
        queries = [
            KNNQuery(Q, 1, query_id="k1"),
            KNNQuery(Q, 2, order_sensitive=True, query_id="k2"),
        ]
        truth = GroundTruth(trajectories, queries).evaluate_at(0.0)
        assert truth["k1"] == ("a",)
        assert truth["k2"] == ("a", "b")


def _by_key(xs, ys, qx, qy):
    """Every row in ``(d2, row)`` order, ``d2`` as the scalar key has it."""
    d2 = [(x - qx) * (x - qx) + (y - qy) * (y - qy) for x, y in zip(xs, ys)]
    return sorted(range(len(d2)), key=lambda row: (d2[row], row))


class TestTopKRows:
    """``top_k_rows``, the column form of the key, against the scalar key."""

    @settings(max_examples=120)
    @given(point_columns(), near_unit, near_unit)
    def test_squared_dists_bit_identical(self, columns, qx, qy):
        # A full ranking (k = n) orders every row by its squared
        # distance, so each ``dx*dx + dy*dy`` must have the scalar bits.
        xs, ys = columns
        top = top_k_rows(xs, ys, qx, qy, len(xs))
        assert top == _by_key(xs, ys, qx, qy)
        assert all(type(row) is int for row in top)

    @settings(max_examples=120)
    @given(point_columns(), near_unit, near_unit,
           st.integers(min_value=0, max_value=50))
    def test_top_k_backends_agree(self, columns, qx, qy, k):
        xs, ys = columns
        assert top_k_rows(xs, ys, qx, qy, k) == _by_key(xs, ys, qx, qy)[:k]

    @settings(max_examples=120)
    @given(point_columns(max_size=15), near_unit, near_unit,
           st.integers(min_value=1, max_value=20))
    def test_top_k_ties_break_by_row(self, columns, qx, qy, k):
        # Duplicate every point once: exact distance ties everywhere.
        xs, ys = columns
        xs, ys = xs + xs, ys + ys
        assert top_k_rows(xs, ys, qx, qy, k) == _by_key(xs, ys, qx, qy)[:k]

    def test_top_k_known_tie_case(self):
        xs, ys = [0.0, 1.0, -1.0, 1.0, 0.5], [1.0, 0.0, 0.0, 0.0, 0.5]
        # d2 from origin: 1, 1, 1, 1, 0.5 — row 4 first, then ties by row.
        assert top_k_rows(xs, ys, 0.0, 0.0, 3) == [4, 0, 1]
        assert top_k_rows(xs, ys, 0.0, 0.0, 99) == [4, 0, 1, 2, 3]
        assert top_k_rows(xs, ys, 0.0, 0.0, 0) == []
        assert top_k_rows([], [], 0.0, 0.0, 3) == []


class TestShardMerge:
    def test_tied_rows_on_two_shards_rank_by_id(self):
        config = ServerConfig(grid_m=4)
        # Pairs tied about Q, in different cells; keep one whose two
        # cells are owned by different shards.
        pairs = [
            (Point(0.25 - i / 64, 0.5), Point(0.75 + i / 64, 0.5))
            for i in range(8)
        ] + [
            (Point(0.5, 0.25 - i / 64), Point(0.5, 0.75 + i / 64))
            for i in range(8)
        ]
        router = ShardedServer(lambda oid: None, config, n_shards=2).router
        split = [
            (a, b) for a, b in pairs
            if router.shard_for_point(a) != router.shard_for_point(b)
        ]
        assert split, "no tied pair straddles the two shards"
        a, b = split[0]
        for low, high in ((a, b), (b, a)):
            positions = {"o0": low, "o1": high, "far": Point(0.95, 0.05)}
            server = ShardedServer(
                positions.__getitem__, config, n_shards=2
            )
            server.load_objects(positions.items())
            query = KNNQuery(Q, 1, query_id="k")
            server.register_query(query)
            assert query.results == ["o0"]
            single = DatabaseServer(positions.__getitem__, config)
            single.load_objects(positions.items())
            alone = KNNQuery(Q, 1, query_id="k")
            single.register_query(alone)
            assert alone.results == ["o0"]


class TestBoundary:
    def test_point_on_circle_range_circle(self):
        query = CircleRangeQuery(Q, 0.25)
        on = Point(0.75, 0.5)
        assert query.quarantine_contains(on)
        assert query.is_affected_by("x", on)
        assert not query.is_affected_by("x", Point(0.76, 0.5))
        query.results = {"x"}
        assert not query.is_affected_by("x", on)

    def test_point_on_range_edge(self):
        query = RangeQuery(Rect(0.25, 0.25, 0.75, 0.75))
        for edge in (Point(0.25, 0.5), Point(0.75, 0.75)):
            assert query.is_affected_by("x", edge)
        query.results = {"x"}
        assert not query.is_affected_by("x", Point(0.75, 0.75))
        assert query.is_affected_by("x", Point(math.nextafter(0.75, 1.0), 0.5))

    def test_monitored_edge_and_rim_members(self):
        positions = {
            "edge": Point(0.75, 0.4),
            "rim": Point(0.5, 0.25),
            "far": Point(0.95, 0.95),
        }
        server = DatabaseServer(positions.__getitem__, ServerConfig(grid_m=4))
        server.load_objects(positions.items())
        box = RangeQuery(Rect(0.6, 0.3, 0.75, 0.45), query_id="r")
        disk = CircleRangeQuery(Q, 0.25, query_id="c")
        server.register_query(box)
        server.register_query(disk)
        assert box.results == {"edge"}
        assert disk.results == {"rim"}
        positions["rim"] = Point(0.5, 0.25 - 2.0 ** -40)
        server.handle_location_update("rim", positions["rim"], 1.0)
        assert disk.results == set()


class TestCertificate:
    def _settled(self):
        positions = {
            "o": Point(0.42, 0.42),
            "n": Point(0.31, 0.30),
            "far": Point(0.9, 0.9),
        }
        registry = MetricsRegistry()
        server = DatabaseServer(
            positions.__getitem__, ServerConfig(grid_m=4), metrics=registry
        )
        server.load_objects(positions.items())
        query = KNNQuery(Point(0.30, 0.30), 1, query_id="kh")
        server.register_query(query)
        server.handle_location_update("o", positions["o"], 1.0)
        cert = server._objects["o"].sr_cert
        (holder, clearance), = cert[2]
        assert holder is query
        return server, registry, query, clearance

    @pytest.mark.parametrize("on_boundary", [False, True])
    def test_radius_onto_the_region_ends_the_certificate(self, on_boundary):
        server, registry, query, clearance = self._settled()
        region = server.safe_region_of("o")
        query.radius = (
            clearance if on_boundary else math.nextafter(clearance, 0.0)
        )
        server.query_index.update(query)
        interior = Point(
            (region.min_x + region.max_x) / 2,
            (region.min_y + region.max_y) / 2,
        )
        before = registry.to_dict()["counters"].get("server.update.certified", 0)
        server.handle_location_update("o", interior, 2.0)
        after = registry.to_dict()["counters"].get("server.update.certified", 0)
        # Closed circle: a radius equal to the clearance touches the
        # region, so the report must be judged, not certified.
        assert after - before == (0 if on_boundary else 1)


class TestIdOrder:
    """Ids that cannot be ordered against each other are refused where
    they enter, by name, not with a ``TypeError`` at the first tie."""

    MIXED = [(1, Point(0.25, 0.5)), ("b", Point(0.75, 0.5))]

    def _server(self):
        return DatabaseServer(lambda oid: None, ServerConfig(grid_m=4))

    def test_load_objects_refuses_mixed_ids(self):
        server = self._server()
        with pytest.raises(UnorderableIds, match="'b'"):
            server.load_objects(self.MIXED)
        assert server.object_count == 0  # nothing half-loaded

    def test_bootstrap_refuses_mixed_ids(self):
        server = self._server()
        with pytest.raises(UnorderableIds):
            server.bootstrap(self.MIXED, [KNNQuery(Q, 1, query_id="k")])

    def test_add_object_refuses_an_id_of_another_kind(self):
        server = self._server()
        server.load_objects([(1, Point(0.25, 0.5)), (2, Point(0.3, 0.5))])
        server.add_object(3, Point(0.6, 0.6))  # same kind: admitted
        with pytest.raises(UnorderableIds):
            server.add_object("b", Point(0.75, 0.5))
        assert "b" not in server and server.object_count == 3

    def test_sharded_bootstrap_refuses_mixed_ids(self):
        server = ShardedServer(
            lambda oid: None, ServerConfig(grid_m=4), n_shards=2
        )
        with pytest.raises(UnorderableIds):
            server.bootstrap(self.MIXED)

    def test_orderable_mixed_number_types_are_admitted(self):
        server = self._server()
        server.load_objects([(1, Point(0.25, 0.5)), (2.5, Point(0.75, 0.5))])
        assert server.object_count == 2

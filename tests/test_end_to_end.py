"""Property-based end-to-end tests: monitoring is exact on random worlds.

Hypothesis drives small random worlds — random object placements, random
query mixes, random movement scripts — through the server, asserting
after every processed update that each query's monitored result equals
brute-force ground truth.  This is the strongest single statement about
the system: the safe-region machinery never misses a result change.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.extensions import CircleRangeQuery
from repro.geometry import Point, Rect

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def worlds(draw):
    n = draw(st.integers(min_value=6, max_value=24))
    positions = {
        i: Point(draw(unit), draw(unit)) for i in range(n)
    }
    queries = []
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        x, y = draw(unit) * 0.8, draw(unit) * 0.8
        size = 0.05 + draw(unit) * 0.3
        queries.append(
            RangeQuery(
                Rect(x, y, min(x + size, 1.0), min(y + size, 1.0)),
                query_id=f"r{i}",
            )
        )
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        queries.append(
            KNNQuery(
                Point(draw(unit), draw(unit)),
                k=draw(st.integers(min_value=1, max_value=3)),
                order_sensitive=draw(st.booleans()),
                query_id=f"k{i}",
            )
        )
    for i in range(draw(st.integers(min_value=0, max_value=1))):
        queries.append(
            CircleRangeQuery(
                Point(draw(unit), draw(unit)),
                radius=0.05 + draw(unit) * 0.2,
                query_id=f"c{i}",
            )
        )
    moves = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1), unit, unit),
            min_size=1,
            max_size=40,
        )
    )
    grid_m = draw(st.sampled_from([3, 5, 8]))
    return positions, queries, moves, grid_m


def check_exact(queries, positions):
    """Every result equals brute force under the one key and boundary:
    kNN ranks by ``(squared distance, oid)`` (a tuple when ordered, a
    set when not), and rectangles and circles are closed."""
    for query in queries:
        if isinstance(query, RangeQuery):
            expected = {
                o for o, p in positions.items() if query.rect.contains_point(p)
            }
            assert query.results == expected, query.query_id
        elif isinstance(query, KNNQuery):
            center = query.center
            ranked = sorted(
                positions,
                key=lambda o: (center.squared_distance_to(positions[o]), o),
            )[: query.k]
            if query.order_sensitive:
                assert query.results == ranked, query.query_id
            else:
                assert len(set(query.results)) == len(query.results)
                assert set(query.results) == set(ranked), query.query_id
        else:  # CircleRangeQuery
            expected = {
                o for o, p in positions.items()
                if query.circle().contains_point(p)
            }
            assert query.results == expected, query.query_id


@settings(max_examples=60, deadline=None)
@given(worlds())
@example((
    # Objects 0 and 1 tie for the 1NN: the id picks 0, and both sit on
    # the midpoint quarantine circle.  Object 0 then moves inside it.
    {0: Point(0.5, 0.5), 1: Point(0.5, 0.5), 2: Point(0.9, 0.9)},
    [KNNQuery(Point(0.2, 0.2), k=1, order_sensitive=False, query_id="k0")],
    [(0, 0.3, 0.3)],
    3,
))
@example((
    # Object 0 reports on its cell's left edge beside range query r0,
    # whose rectangle straddles the report's horizontal line: no part
    # of the granted region, not even a zero-height one, may enter r0.
    {i: Point(0.0, 0.0) for i in range(6)},
    [RangeQuery(Rect(0.1, 0.4, 0.45, 0.75), query_id="r0")],
    [(0, 0.0, 0.5), (0, 0.25, 0.5)],
    3,
))
def test_monitoring_never_misses_a_change(world):
    positions, queries, moves, grid_m = world
    positions = dict(positions)
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        config=ServerConfig(grid_m=grid_m),
    )
    server.load_objects(positions.items())
    for query in queries:
        server.register_query(query)
    check_exact(queries, positions)

    t = 0.0
    for oid, x, y in moves:
        t += 0.01
        positions[oid] = Point(x, y)
        if not server.safe_region_of(oid).contains_point(positions[oid]):
            server.handle_location_update(oid, positions[oid], t)
        check_exact(queries, positions)
    server.validate()


@settings(max_examples=25, deadline=None)
@given(worlds(), st.booleans())
def test_enhancements_preserve_exactness(world, use_steadiness):
    positions, queries, moves, grid_m = world
    positions = dict(positions)
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        config=ServerConfig(
            grid_m=grid_m,
            max_speed=5.0,  # teleport-tolerant bound for arbitrary moves
            steadiness=0.5 if use_steadiness else 0.0,
        ),
    )
    server.load_objects(positions.items())
    for query in queries:
        server.register_query(query)
    t = 0.0
    for oid, x, y in moves:
        t += 1.0  # generous reachability window per step
        positions[oid] = Point(x, y)
        if not server.safe_region_of(oid).contains_point(positions[oid]):
            server.handle_location_update(oid, positions[oid], t)
        check_exact(queries, positions)

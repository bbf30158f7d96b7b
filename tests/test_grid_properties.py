"""Property-based tests for the grid query index."""

from hypothesis import given, settings, strategies as st

from repro.core.queries import KNNQuery, RangeQuery
from repro.geometry import Point, Rect
from repro.index import GridIndex

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def range_queries(draw):
    x = draw(unit) * 0.9
    y = draw(unit) * 0.9
    w = 0.01 + draw(unit) * 0.2
    h = 0.01 + draw(unit) * 0.2
    return RangeQuery(Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)))


@st.composite
def knn_queries(draw):
    query = KNNQuery(Point(draw(unit), draw(unit)), k=1)
    query.radius = 0.01 + draw(unit) * 0.2
    return query


@settings(max_examples=120)
@given(
    st.lists(st.one_of(range_queries(), knn_queries()), min_size=1, max_size=10),
    st.integers(min_value=2, max_value=25),
    unit,
    unit,
)
def test_bucket_completeness(queries, m, px, py):
    """Every query whose quarantine covers p is found via p's cell.

    This is the safety property the affected-query filtering rests on:
    no false negatives, ever.
    """
    grid = GridIndex(m)
    for query in queries:
        grid.insert(query)
    p = Point(px, py)
    found = grid.queries_at(p)
    for query in queries:
        if query.quarantine_contains(p):
            assert query in found


@settings(max_examples=80)
@given(
    st.lists(range_queries(), min_size=1, max_size=8),
    st.integers(min_value=2, max_value=20),
    unit,
    unit,
    unit,
    unit,
)
def test_candidate_queries_cover_transitions(queries, m, ax, ay, bx, by):
    """An object moving a -> b: every affected query is a candidate."""
    grid = GridIndex(m)
    for query in queries:
        grid.insert(query)
    a, b = Point(ax, ay), Point(bx, by)
    candidates = grid.candidate_queries(b, a)
    for query in queries:
        # The mover is a result iff its last report ``a`` was inside.
        query.results = {"o"} if query.rect.contains_point(a) else set()
        if query.is_affected_by("o", b):
            assert query in candidates


@settings(max_examples=60)
@given(
    st.lists(knn_queries(), min_size=1, max_size=6),
    st.integers(min_value=2, max_value=15),
    unit,
)
def test_update_keeps_buckets_consistent(queries, m, new_radius_scale):
    """After radius changes + grid.update, lookups stay complete."""
    grid = GridIndex(m)
    for query in queries:
        grid.insert(query)
    for query in queries:
        query.radius = 0.01 + new_radius_scale * 0.3
        grid.update(query)
    # Recheck completeness at the query centres and circle edges.
    for query in queries:
        assert query in grid.queries_at(query.center)
        edge = Point(
            min(query.center.x + query.radius * 0.99, 1.0), query.center.y
        )
        if query.quarantine_contains(edge):
            assert query in grid.queries_at(edge)


@settings(max_examples=60)
@given(
    st.lists(range_queries(), min_size=2, max_size=8),
    st.integers(min_value=2, max_value=15),
)
def test_remove_leaves_no_trace(queries, m):
    grid = GridIndex(m)
    for query in queries:
        grid.insert(query)
    victim = queries[0]
    grid.remove(victim)
    assert victim not in grid
    assert len(grid) == len(queries) - 1
    for i in range(m):
        for j in range(m):
            assert victim not in grid.queries_in_cell((i, j))

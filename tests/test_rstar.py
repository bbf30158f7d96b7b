"""Unit, integration, and property tests for the object index.

``CellObjectIndex`` is checked against the brute-force oracle over an
8 x 8 grid, so random regions up to 0.05 wide land both in home cells
and in ``wide``.  The loading cases build an index the way PRD rebuilds
one each period: a fresh index, one insert per reported object.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Rect
from repro.index import CellObjectIndex, GridIndex
from tests.brute_index import BruteForceIndex
from tests.test_cell_object_index import cell_index, load


def random_rect(rng: random.Random, size: float = 0.05) -> Rect:
    x = rng.uniform(0, 1 - size)
    y = rng.uniform(0, 1 - size)
    w = rng.uniform(0, size)
    h = rng.uniform(0, size)
    return Rect(x, y, x + w, y + h)


def build_pair(n: int, seed: int = 7):
    """A cell index and a brute-force oracle over the same data."""
    rng = random.Random(seed)
    index = cell_index()
    oracle = BruteForceIndex()
    for oid in range(n):
        rect = random_rect(rng)
        index.insert(oid, rect)
        oracle.insert(oid, rect)
    return index, oracle, rng


class TestConstruction:
    def test_parameter_validation(self):
        """The index's only parameters are its grid's, checked there."""
        with pytest.raises(ValueError):
            cell_index(0)
        with pytest.raises(ValueError):
            CellObjectIndex(GridIndex(4, Rect(0, 0, 0, 1)))

    def test_empty_tree(self):
        index = cell_index()
        assert len(index) == 0
        assert index.search(Rect(0, 0, 1, 1)) == []
        assert list(index.nearest_iter(Point(0, 0))) == []
        index.validate()

    def test_duplicate_insert_rejected(self):
        index = cell_index()
        index.insert("a", Rect(0, 0, 1, 1))
        with pytest.raises(KeyError):
            index.insert("a", Rect(0, 0, 1, 1))

    def test_missing_delete_raises(self):
        with pytest.raises(KeyError):
            cell_index().delete("ghost")

    def test_contains_and_rect_of(self):
        index = cell_index()
        r = Rect(0.1, 0.1, 0.2, 0.2)
        index.insert(42, r)
        assert index.rect_of(42) == r
        with pytest.raises(KeyError):
            index.rect_of(43)


class TestStructuralInvariants:
    @pytest.mark.parametrize("n", [1, 5, 33, 200, 800])
    def test_validate_after_inserts(self, n):
        index, _, _ = build_pair(n)
        assert len(index) == n
        index.validate()

    def test_validate_after_heavy_deletes(self):
        index, oracle, rng = build_pair(300)
        ids = list(range(300))
        rng.shuffle(ids)
        for oid in ids[:250]:
            index.delete(oid)
            oracle.delete(oid)
        index.validate()
        assert len(index) == 50
        survivors = {oid for oid, _ in index.all_entries()}
        assert survivors == set(ids[250:])

    def test_delete_everything(self):
        index, _, _ = build_pair(120)
        for oid in range(120):
            index.delete(oid)
        assert len(index) == 0
        index.validate()
        # The index is reusable after emptying.
        index.insert("again", Rect(0, 0, 0.1, 0.1))
        index.validate()


class TestSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_range_search_matches_oracle(self, seed):
        index, oracle, rng = build_pair(400, seed=seed)
        for _ in range(30):
            probe = random_rect(rng, size=0.3)
            assert sorted(index.search(probe)) == sorted(oracle.search(probe))

    def test_search_entries_returns_stored_rects(self):
        index, oracle, rng = build_pair(100)
        probe = Rect(0, 0, 1, 1)
        got = dict(index.search_entries(probe))
        expected = dict(oracle.search_entries(probe))
        assert got == expected

    def test_point_probe(self):
        index = cell_index(4)
        index.insert("hit", Rect(0.4, 0.4, 0.6, 0.6))
        index.insert("miss", Rect(0.8, 0.8, 0.9, 0.9))
        found = index.search(Rect.from_point(Point(0.5, 0.5)))
        assert found == ["hit"]


class TestNearestIter:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_order_matches_oracle(self, seed):
        index, oracle, rng = build_pair(300, seed=seed)
        q = Point(rng.random(), rng.random())
        got = [(oid, d) for oid, _, d in index.nearest_iter(q)]
        expected = [(oid, d) for oid, _, d in oracle.nearest_iter(q)]
        assert len(got) == len(expected)
        # Distances must be identical and non-decreasing; ids may permute
        # only among equal distances.
        for (_, dg), (_, de) in zip(got, expected):
            assert dg == pytest.approx(de)
        assert [d for _, d in got] == sorted(d for _, d in got)

    def test_exclude_filter(self):
        index, _, _ = build_pair(50)
        banned = {0, 1, 2, 3, 4}
        seen = [oid for oid, _, _ in index.nearest_iter(
            Point(0.5, 0.5), exclude=lambda oid: oid in banned
        )]
        assert banned.isdisjoint(seen)
        assert len(seen) == 45

    def test_lazy_iteration_is_incremental(self):
        index, oracle, _ = build_pair(500)
        it = index.nearest_iter(Point(0.5, 0.5))
        first = next(it)
        expected_first = next(iter(oracle.nearest_iter(Point(0.5, 0.5))))
        assert first[2] == pytest.approx(expected_first[2])


class TestUpdate:
    def test_large_moves_relocate(self):
        index, oracle, rng = build_pair(300)
        for oid in range(300):
            rect = random_rect(rng)
            index.update(oid, rect)
            oracle.update(oid, rect)
        index.validate()
        probe = Rect(0.25, 0.25, 0.75, 0.75)
        assert sorted(index.search(probe)) == sorted(oracle.search(probe))

    def test_update_missing_raises(self):
        with pytest.raises(KeyError):
            cell_index().update("ghost", Rect(0, 0, 1, 1))


class TestBulkLoad:
    def test_empty(self):
        index = load([])
        assert len(index) == 0
        index.validate()

    @pytest.mark.parametrize("n", [1, 10, 100, 1000])
    def test_matches_oracle(self, n):
        rng = random.Random(11)
        pairs = [(i, random_rect(rng)) for i in range(n)]
        index = load(pairs, m=16)
        oracle = BruteForceIndex()
        for oid, rect in pairs:
            oracle.insert(oid, rect)
        index.validate()
        assert len(index) == n
        probe = Rect(0.2, 0.2, 0.6, 0.6)
        assert sorted(index.search(probe)) == sorted(oracle.search(probe))

    def test_duplicate_rejected(self):
        with pytest.raises(KeyError):
            load([("a", Rect(0, 0, 1, 1)), ("a", Rect(0, 0, 1, 1))])

    def test_supports_mutation_after_load(self):
        rng = random.Random(3)
        pairs = [(i, random_rect(rng)) for i in range(500)]
        index = load(pairs)
        for oid in range(0, 500, 2):
            index.delete(oid)
        for oid in range(500, 600):
            index.insert(oid, random_rect(rng))
        index.validate()
        assert len(index) == 350


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=1, allow_nan=False),
            st.floats(min_value=0, max_value=0.2, allow_nan=False),
            st.floats(min_value=0, max_value=0.2, allow_nan=False),
        ),
        min_size=0,
        max_size=120,
    ),
    st.randoms(use_true_random=False),
)
def test_random_workload_matches_oracle(raw, rng):
    """Interleaved inserts / deletes / updates agree with brute force."""
    index = cell_index(5)
    oracle = BruteForceIndex()
    live = []
    for i, (x, y, w, h) in enumerate(raw):
        rect = Rect(x, y, x + w, y + h)
        op = rng.random()
        if live and op < 0.25:
            victim = live.pop(rng.randrange(len(live)))
            index.delete(victim)
            oracle.delete(victim)
        elif live and op < 0.5:
            target = live[rng.randrange(len(live))]
            index.update(target, rect)
            oracle.update(target, rect)
        else:
            index.insert(i, rect)
            oracle.insert(i, rect)
            live.append(i)
    index.validate()
    assert sorted(oid for oid, _ in index.all_entries()) == sorted(live)
    probe = Rect(0.25, 0.25, 0.8, 0.8)
    assert sorted(index.search(probe)) == sorted(oracle.search(probe))
    q = Point(0.4, 0.6)
    got = [d for _, _, d in index.nearest_iter(q)]
    expected = [d for _, _, d in oracle.nearest_iter(q)]
    assert got == pytest.approx(expected)

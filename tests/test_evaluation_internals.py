"""White-box tests for the evaluation machinery's internals."""

from repro.core.evaluation import _Candidate, _MergedQueue
from repro.geometry import Point, Rect


def region_stream(entries, q):
    """Mimic an object index's ``nearest_iter`` output for (oid, rect) pairs."""
    ranked = sorted(
        (rect.min_d2_to_point(q), oid, rect) for oid, rect in entries
    )
    for d2, oid, rect in ranked:
        yield oid, rect, d2


class TestCandidate:
    def test_region_bounds(self):
        q = Point(0.0, 0.0)
        candidate = _Candidate("a", Rect(3.0, 0.0, 4.0, 0.0), q, False)
        # Squared-distance bounds: the ranking key's, not lengths.
        assert candidate.lo == 9.0
        assert candidate.hi == 16.0
        assert not candidate.is_point

    def test_point_bounds_collapse(self):
        q = Point(0.0, 0.0)
        candidate = _Candidate("a", Point(3.0, 4.0), q, True)
        assert candidate.lo == candidate.hi == 25.0
        assert candidate.is_point


class TestMergedQueue:
    def test_stream_only_order(self):
        q = Point(0.0, 0.0)
        entries = [
            ("far", Rect(5, 0, 6, 1)),
            ("near", Rect(1, 0, 2, 1)),
            ("mid", Rect(3, 0, 4, 1)),
        ]
        queue = _MergedQueue(region_stream(entries, q), q)
        order = []
        while True:
            item = queue.pop()
            if item is None:
                break
            order.append(item.oid)
        assert order == ["near", "mid", "far"]

    def test_pushed_items_merge_by_key(self):
        q = Point(0.0, 0.0)
        entries = [("a", Rect(2, 0, 3, 0)), ("b", Rect(6, 0, 7, 0))]
        queue = _MergedQueue(region_stream(entries, q), q)
        first = queue.pop()
        assert first.oid == "a"
        # Probe resolution: a's exact point lands between a and b.
        queue.push(_Candidate("a", Point(4.0, 0.0), q, True))
        second = queue.pop()
        assert second.oid == "a" and second.is_point
        third = queue.pop()
        assert third.oid == "b"
        assert queue.pop() is None

    def test_pushed_item_with_smaller_key_comes_first(self):
        q = Point(0.0, 0.0)
        entries = [("far", Rect(9, 0, 10, 0))]
        queue = _MergedQueue(region_stream(entries, q), q)
        queue.push(_Candidate("urgent", Point(1.0, 0.0), q, True))
        assert queue.pop().oid == "urgent"
        assert queue.pop().oid == "far"

    def test_empty_everything(self):
        q = Point(0.0, 0.0)
        queue = _MergedQueue(iter(()), q)
        assert queue.pop() is None
        queue.push(_Candidate("late", Point(1, 1), q, True))
        assert queue.pop().oid == "late"
        assert queue.pop() is None

    def test_tie_breaking_is_stable(self):
        """Equal distances pop in id order, whatever the push order."""
        q = Point(0.0, 0.0)
        queue = _MergedQueue(iter(()), q)
        for i in (3, 0, 4, 1, 2):
            queue.push(_Candidate(f"o{i}", Point(1.0, 0.0), q, True))
        assert [queue.pop().oid for _ in range(5)] == [
            f"o{i}" for i in range(5)
        ]

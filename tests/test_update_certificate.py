"""The safe-region certificate, case by case (docs/PERFORMANCE.md).

One table: the kind of cell the object lives in x the move it reports,
each driven through every entry point.
Per case the table states which exit the report must take — the
query-free no-op, the covered-cell (clearance) no-op, or the slow path —
and the test checks that outcome, installed region and the
``server.update.fastpath`` / ``server.update.certified`` /
``server.sr_recompute.skipped`` counts are identical across the entry
points: the certificate is a policy, so how a report arrives may not
change the exit it takes.
"""

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.core.extensions import CircleRangeQuery
from repro.geometry import Point, Rect
from repro.obs import MetricsRegistry

# 4 x 4 grid, cells 0.25 wide.  The object under test, ``o``, lives in
# HOME; FREE never holds a query; COVERED holds range query ``rn``.
HOME = Rect(0.25, 0.25, 0.5, 0.5)
FREE = Rect(0.5, 0.25, 0.75, 0.5)
START = Point(0.42, 0.42)
NEAR_CENTER = Point(0.31, 0.30)

FAST, CERTIFIED, SLOW = "query-free no-op", "covered no-op", "slow path"
COUNTS = {FAST: (1, 0), CERTIFIED: (1, 1), SLOW: (0, 0)}

#: cell kind -> (queries over HOME, where ``o`` starts, where ``n`` starts,
#: what its settled certificate must carry: ``None`` = the query-free
#: kind, a number = that many kNN clearances, "absent" = no certificate).
KINDS = {
    "query_free": (lambda: [], START, NEAR_CENTER, None),
    "range_only": (
        lambda: [RangeQuery(Rect(0.26, 0.26, 0.32, 0.32), query_id="rh")],
        START, NEAR_CENTER, 0,
    ),
    "knn_outsider": (
        lambda: [KNNQuery(Point(0.30, 0.30), 1, query_id="kh")],
        START, NEAR_CENTER, 1,
    ),
    "knn_insider": (
        lambda: [KNNQuery(Point(0.30, 0.30), 1, query_id="kh")],
        NEAR_CENTER, START, "absent",
    ),
    "custom_type": (
        lambda: [CircleRangeQuery(Point(0.30, 0.30), 0.03, query_id="ch")],
        START, NEAR_CENTER, "absent",
    ),
}

#: move -> expected exit per cell kind, in KINDS order.
MOVES = {
    "interior":          (FAST, CERTIFIED, CERTIFIED, SLOW, SLOW),
    "on_region_edge":    (FAST, SLOW, SLOW, SLOW, SLOW),
    "on_cell_edge":      (FAST, SLOW, SLOW, SLOW, SLOW),
    "cross_into_free":   (FAST, SLOW, SLOW, SLOW, SLOW),
    "cross_into_covered": (SLOW, SLOW, SLOW, SLOW, SLOW),
    # An outsider's region keeps OUTSIDER_STANDOFF of its gap to the
    # circle, so its clearance exceeds the radius and the certificate
    # survives a 0.1 % growth (SLOW while regions touched the circle:
    # clearance == radius); only growth past the clearance ends it.
    "radius_grown":      (FAST, CERTIFIED, CERTIFIED, SLOW, SLOW),
    "radius_past_clearance": (FAST, CERTIFIED, SLOW, SLOW, SLOW),
    "generation_bumped": (SLOW, SLOW, SLOW, SLOW, SLOW),
}

ENTRY_POINTS = ("single", "batch")


def _toward_centre(position, region):
    """A point strictly interior to a non-degenerate ``region``."""
    return Point(
        (position.x + (region.min_x + region.max_x) / 2) / 2,
        (position.y + (region.min_y + region.max_y) / 2) / 2,
    )


def _report(server, entry, position, time):
    """Drive one report of ``o`` through ``entry``; a comparable outcome."""
    if entry == "batch":
        out = server.handle_location_updates([("o", position)], time=time)
        regions = dict(out.regions)
        region = regions.pop("o", None)
    else:
        out = server.handle_location_update("o", position, time)
        region, regions = out.safe_region, out.probed
    return (
        region,
        sorted(regions.items()),
        [(c.query_id, c.old, c.new) for c in out.changes],
    )


def _run(kind, move, entry):
    make_queries, start, other, clearances = KINDS[kind]
    positions = {"o": start, "n": other, "far": Point(0.9, 0.9)}
    registry = MetricsRegistry()
    server = DatabaseServer(
        lambda oid: positions[oid],
        ServerConfig(grid_m=4),
        metrics=registry,
    )
    server.load_objects(positions.items())
    queries = make_queries() + [
        RangeQuery(Rect(0.30, 0.55, 0.45, 0.70), query_id="rn")
    ]
    for query in queries:
        server.register_query(query, time=0.0)
    # Settle: one report from where ``o`` already is leaves it holding
    # the certificate its cell kind earns (registration bumped HOME's
    # generation under the certificate ``load_objects`` seeded).
    server.handle_location_update("o", start, 1.0)
    state = server._objects["o"]
    cert = state.sr_cert
    if cert is None:
        held = "absent"
    else:
        held = None if cert[2] is None else len(cert[2])
    assert held == clearances, (kind, cert)
    region = state.safe_region

    if move == "interior":
        target = _toward_centre(start, region)
    elif move == "on_region_edge":
        target = Point(region.min_x, start.y)
    elif move == "on_cell_edge":
        target = Point(HOME.min_x, start.y)  # closed cell: still HOME
    elif move == "cross_into_free":
        target = Point(0.60, 0.40)
    elif move == "cross_into_covered":
        target = Point(0.40, 0.60)  # inside ``rn``
    elif move in ("radius_grown", "radius_past_clearance"):
        target = _toward_centre(start, region)
        recorded = {q.query_id: c for q, c in (cert and cert[2]) or ()}
        for query in queries:
            if isinstance(query, KNNQuery):
                # Short of any new cell or object either way.
                query.radius *= 1.001
                if move == "radius_past_clearance":
                    query.radius = max(
                        query.radius, recorded.get(query.query_id, 0) * 1.001
                    )
                server.query_index.update(query)
    else:
        assert move == "generation_bumped"
        target = _toward_centre(start, region)
        # Registering probes ``o`` and reissues its certificate under
        # the new generation; deregistering contacts nobody, so it
        # leaves the certificate stale over an unchanged query set.
        transient = RangeQuery(Rect(0.26, 0.44, 0.30, 0.48), query_id="rt")
        server.register_query(transient, time=1.0)
        server.deregister_query(transient)
        region = state.safe_region

    def counts():
        counters = registry.to_dict()["counters"]
        return tuple(
            counters.get(name, 0)
            for name in (
                "server.update.fastpath", "server.update.certified",
                "server.sr_recompute.skipped",
            )
        )

    before = counts()
    positions["o"] = target
    outcome = _report(server, entry, target, 2.0)
    delta = tuple(b - a for a, b in zip(before, counts()))
    # A follow-up report strictly inside whatever region the move left
    # installed: its exit depends only on the certificate the move
    # issued, re-anchored or kept.
    follow = _toward_centre(target, server.safe_region_of("o"))
    positions["o"] = follow
    followed = _report(server, entry, follow, 3.0)
    follow_delta = tuple(
        b - a - d for a, b, d in zip(before, counts(), delta)
    )
    server.validate()
    return {
        "outcome": outcome,
        "delta": delta,
        "followed": followed,
        "follow_delta": follow_delta,
        "region_before": region,
        "region_after": server.safe_region_of("o"),
        "results": {q.query_id: q.result_snapshot() for q in queries},
    }


@pytest.mark.parametrize("move", MOVES)
@pytest.mark.parametrize("kind", KINDS)
def test_certificate_exit(kind, move):
    expected = MOVES[move][list(KINDS).index(kind)]
    runs = {entry: _run(kind, move, entry) for entry in ENTRY_POINTS}
    reference = runs["single"]
    for key, run in runs.items():
        run = dict(run)
        assert run.pop("region_before") == reference["region_before"], key
        assert run == {
            k: v for k, v in reference.items() if k != "region_before"
        }, key

    assert reference["delta"] == COUNTS[expected] + (0,), expected
    region, probed, changes = reference["outcome"]
    if expected == SLOW:
        if move == "cross_into_covered":
            assert "o" in reference["results"]["rn"]
            assert any(query_id == "rn" for query_id, _, _ in changes)
        return
    # A no-op: nobody probed, nothing changed, and the region is the one
    # already installed — except across a query-free crossing, where it
    # re-anchors to the landing cell.
    assert probed == [] and changes == []
    if move == "cross_into_free":
        assert region == FREE
        # The re-anchored certificate keeps working in the new cell.
        assert reference["follow_delta"] == COUNTS[FAST] + (0,)
    else:
        assert region == reference["region_before"]
        assert reference["follow_delta"] == COUNTS[expected] + (0,)
    if kind == "query_free" and move != "cross_into_free":
        assert region == HOME

"""Server-level observability: spans and counters from a real update cycle."""

import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.obs import EventLog, MetricsRegistry, diagnose


@pytest.fixture
def world():
    rng = random.Random(7)
    positions = {
        oid: Point(rng.random(), rng.random()) for oid in range(120)
    }
    registry = MetricsRegistry()
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        metrics=registry,
        config=ServerConfig(grid_m=8),
    )
    server.load_objects(positions.items())
    return positions, registry, server


def _drive_until_update(positions, server, rng, steps=400):
    """Random-walk objects, reporting on safe-region exits; stop after one."""
    handled = 0
    t = 0.0
    for _ in range(steps):
        t += 0.01
        oid = rng.randrange(len(positions))
        p = positions[oid]
        new = Point(
            min(max(p.x + rng.uniform(-0.05, 0.05), 0.0), 1.0),
            min(max(p.y + rng.uniform(-0.05, 0.05), 0.0), 1.0),
        )
        positions[oid] = new
        if not server.safe_region_of(oid).contains_point(new):
            server.handle_location_update(oid, new, t)
            handled += 1
            if handled >= 25:
                break
    assert handled, "random walk never left a safe region"
    return handled


def test_update_cycle_emits_per_phase_spans(world):
    positions, registry, server = world
    rng = random.Random(11)
    for i in range(8):
        x, y = rng.random() * 0.85, rng.random() * 0.85
        server.register_query(
            RangeQuery(Rect(x, y, x + 0.12, y + 0.12), query_id=f"r{i}"),
            time=0.0,
        )
    for i in range(4):
        server.register_query(
            KNNQuery(Point(rng.random(), rng.random()), 3, query_id=f"k{i}"),
            time=0.0,
        )

    handled = _drive_until_update(positions, server, rng)

    snapshot = registry.to_dict()
    spans = set(snapshot["histograms"])
    # The full per-phase hierarchy of Algorithm 1, as dotted span paths.
    assert {
        "span.server.bootstrap.seconds",
        "span.server.register_query.seconds",
        "span.server.update.seconds",
        "span.server.update.ingest.seconds",
        "span.server.update.ingest.reevaluate.seconds",
        "span.server.update.location_manager.seconds",
        "span.server.update.location_manager.safe_region.seconds",
    } <= spans

    counters = snapshot["counters"]
    assert counters["server.location_updates"] == handled
    assert snapshot["histograms"]["span.server.update.seconds"][
        "count"
    ] == handled
    # Candidate-set sizes were observed once per reevaluation phase.
    assert snapshot["histograms"][
        "server.queries_checked_per_report"
    ]["count"] > 0
    # Grid instrumentation rides along on the shared registry.
    assert counters["grid.lookups"] > 0
    assert snapshot["histograms"]["grid.candidates"]["count"] > 0


def test_probe_span_appears_when_server_probes(world):
    positions, registry, server = world
    rng = random.Random(3)
    # Small k over a dense cluster: result changes routinely force probes
    # of non-reporting neighbours.
    for i in range(6):
        server.register_query(
            KNNQuery(Point(rng.random(), rng.random()), 2, query_id=f"k{i}"),
            time=0.0,
        )
    _drive_until_update(positions, server, rng, steps=2000)
    snapshot = registry.to_dict()
    assert snapshot["counters"].get("server.probes", 0) > 0
    assert (
        "span.server.update.ingest.reevaluate.probe.seconds"
        in snapshot["histograms"]
    )


def test_cpu_seconds_matches_tracer_totals(world):
    positions, registry, server = world
    rng = random.Random(5)
    server.register_query(
        RangeQuery(Rect(0.1, 0.1, 0.4, 0.4), query_id="r0"), time=0.0
    )
    _drive_until_update(positions, server, rng)
    histograms = registry.to_dict()["histograms"]
    root_sum = sum(
        data["sum"]
        for name, data in histograms.items()
        if name in (
            "span.server.bootstrap.seconds",
            "span.server.register_query.seconds",
            "span.server.update.seconds",
        )
    )
    assert server.stats.cpu_seconds == pytest.approx(root_sum)


def test_default_server_records_cpu_but_no_metrics():
    rng = random.Random(2)
    positions = {
        oid: Point(rng.random(), rng.random()) for oid in range(60)
    }
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        config=ServerConfig(grid_m=6),
    )
    server.load_objects(positions.items())
    server.register_query(
        RangeQuery(Rect(0.2, 0.2, 0.6, 0.6), query_id="r0"), time=0.0
    )
    _drive_until_update(positions, server, rng)
    assert server.stats.cpu_seconds > 0.0
    assert server.metrics.to_dict() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }


def test_probed_target_with_a_valid_certificate_emits_sr_skip():
    """The one way ``sr_skip`` fires: a reevaluation probes a bystander
    whose safe-region certificate still covers its exact position, so
    the location manager reinstalls its region instead of recomputing.

    ``a`` is the 1-NN of ``k0``; ``b`` is the runner-up, an outsider
    whose region hugs the quarantine circle (clearance = radius).  ``c``
    sits behind range query ``r0``'s edge, so its region starts farther
    out than ``b``'s and is probed second.  ``c`` drifts unreported to
    nearer than ``a`` ever was, then ``a`` leaves: the kNN refill probes
    ``b`` then ``c``, ``c`` wins, and the quarantine radius *shrinks* —
    ``b``'s certificate holds.
    """
    positions = {
        "a": Point(0.25, 0.28), "b": Point(0.34, 0.31),
        "c": Point(0.40, 0.25), "far": Point(0.9, 0.9),
    }
    registry = MetricsRegistry()
    log = EventLog(capacity=1000)
    server = DatabaseServer(
        position_oracle=lambda oid: positions[oid],
        config=ServerConfig(grid_m=2), metrics=registry, events=log,
    )
    server.load_objects(positions.items())
    server.register_query(
        RangeQuery(Rect(0.15, 0.15, 0.35, 0.35), query_id="r0"), time=0.0
    )
    knn = KNNQuery(Point(0.25, 0.25), 1, query_id="k0")
    server.register_query(knn, time=0.0)
    region_before = server.safe_region_of("b")
    radius_before = knn.radius

    positions["c"] = Point(0.26, 0.25)  # unreported drift, caught by the probe
    positions["a"] = Point(0.75, 0.75)
    mark = len(log.events())
    outcome = server.handle_location_update("a", positions["a"], 2.0)

    assert knn.results == ["c"] and knn.radius < radius_before
    assert outcome.probed["b"] == region_before == server.safe_region_of("b")
    counters = registry.to_dict()["counters"]
    assert counters["server.sr_recompute.skipped"] == 1

    events = [event.to_dict() for event in log.events()]
    fresh = events[mark:]
    update = fresh[0]
    assert update["kind"] == "update" and update["oid"] == "a"
    about_b = [e for e in fresh if e.get("oid") == "b"]
    assert [e["kind"] for e in about_b] == ["probe", "sr_skip", "safe_region"]
    probe, skip, install = about_b
    # The probe chains to the reevaluation that issued it; the skip and
    # the reinstall run in the location manager, under the root update.
    reevaluation = next(e for e in fresh if e["seq"] == probe["cause"])
    assert reevaluation["kind"] == "reevaluation"
    assert reevaluation["cause"] == update["seq"]
    assert skip["cause"] == install["cause"] == update["seq"]
    assert install["region"] == (
        region_before.min_x, region_before.min_y,
        region_before.max_x, region_before.max_y,
    )
    assert install["pos"] == (0.34, 0.31)
    findings = diagnose(events)
    assert findings.ok, findings.render()
    server.validate()

"""A dense kNN world through the engine: exact, probes few, reports few.

At 30 objects per cell every quarantine circle has dozens of outsiders
in its cells.  While their safe regions touched the circle, each k-th
neighbour caught just outside it cost a probe per touching region (13
per ``knn_leaves`` reevaluation in this world, 37 at paper scale, and a
``probe_cascade`` finding every time); with ``OUTSIDER_STANDOFF`` only
genuinely adjacent outsiders remain candidates (DESIGN.md §6 item 3).
While the Ir-lp closed forms clamped an object onto a face of its own
region, 4,076 of the regions this world installs were left before the
client could poll its position once; with ``ROOM_SHARE`` of its
clearance kept free around it (DESIGN.md §6 item 1) two thirds of those
reports are never sent.
The CI ``e2e-smoke`` job runs this file (``.github/workflows/ci.yml``).
"""

import random

import pytest

from repro.cli import main
from repro.core import KNNQuery
from repro.geometry import Point
from repro.obs import EventLog, MetricsRegistry
from repro.simulation import Scenario, SRBSimulation

#: 480 objects on a 4 x 4 grid: 30 per cell.
DENSE = Scenario(
    num_objects=480,
    num_queries=12,
    mean_speed=0.02,
    mean_period=0.1,
    grid_m=4,
    delay=0.0,
    duration=1.0,
    sample_interval=0.05,
    seed=5,
)


def dense_queries(seed: int, unordered_every: int = 0) -> list[KNNQuery]:
    """Twelve kNN queries, k in 1..5; every n-th order-insensitive."""
    rng = random.Random(seed)
    return [
        KNNQuery(
            Point(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)),
            rng.randint(1, 5),
            order_sensitive=not (unordered_every and i % unordered_every == 0),
            query_id=f"k{i}",
        )
        for i in range(DENSE.num_queries)
    ]


@pytest.fixture(scope="module", params=[0, 2], ids=["single", "shards=2"])
def dense_run(request, tmp_path_factory):
    """One monitored run, checked at every sample; its census and record."""
    shards = request.param
    queries = dense_queries(DENSE.seed)
    registry = MetricsRegistry()
    log = EventLog(capacity=1_000_000)
    # Cross-shard merges rank by held positions unless refresh probes
    # are on (docs/SHARDING.md); exactness is the point here.
    sim = SRBSimulation(
        DENSE.with_overrides(shards=shards, refresh_probes=bool(shards)),
        queries=queries, metrics=registry, events=log,
    )
    compared = excused = unexcused = 0
    sample = sim._on_sample

    def checked_sample():
        nonlocal compared, excused, unexcused
        now = sim._now
        sim.server.validate()
        # A fresh region is held for one position poll before its
        # client may report again, so a few objects are always caught
        # between polls.  The guarantee covers everybody else: a result
        # may differ from brute force only over one of those strays.
        strays = {
            oid for oid, client in sim.clients.items()
            if not sim.server.safe_region_of(oid).contains_point(
                client.position_at(now), eps=1e-12
            )
        }
        truth = sim.truth.evaluate_at(now)
        for query in queries:
            held, true = query.result_snapshot(), truth[query.query_id]
            compared += 1
            if held != true:
                if strays & (set(held) | set(true)):
                    excused += 1
                else:
                    unexcused += 1
        sample()

    sim._on_sample = checked_sample
    report = sim.run()
    counters = dict(report.metrics["counters"])
    for snapshot in report.metrics.get("shards", {}).values():
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
    record = tmp_path_factory.mktemp("flight") / f"dense_{shards}.jsonl"
    log.dump(record)
    return {
        "shards": shards, "compared": compared, "excused": excused,
        "unexcused": unexcused, "updates": report.costs.updates,
        "counters": counters, "record": record,
    }


def test_dense_world_is_exact_and_probes_only_adjacent_outsiders(dense_run):
    samples = len(DENSE.sample_times())
    assert dense_run["compared"] == samples * DENSE.num_queries
    assert dense_run["excused"] <= dense_run["compared"] // 20
    # Safe regions guarantee a single server's results outright.  A
    # cross-shard merge is not protected by them: it ranks partial rows
    # by positions refreshed when a report comes in, and the fewer
    # reports the regions cause, the less often that is (3 of 240 at
    # seed 2 while every other region was left within one poll, 5 of 240
    # here since they are not).
    allowed = dense_run["compared"] // 20 if dense_run["shards"] else 0
    assert dense_run["unexcused"] <= allowed
    counters = dense_run["counters"]
    leaves = counters["server.reevaluations.by_case.knn_leaves"]
    assert leaves >= 100
    # 12.9 while outsider regions touched the circle (1,879 / 146).
    assert counters["server.probes.by_case.knn_leaves"] <= 5 * leaves
    assert 0 < counters["server.knn.leaver_reelected"] <= leaves


def test_dense_world_flight_record_has_no_probe_cascade(dense_run, capsys):
    assert main(["diagnose", str(dense_run["record"])]) == 0
    assert "probe_cascade" not in capsys.readouterr().out.split("\n", 1)[1]


def test_dense_world_regions_outlast_a_position_poll(dense_run):
    """The storm as two numbers: reports sent, regions left within a poll.

    7,014 reports and 4,076 monitoring-period installs floored by the
    poll interval while a clamped θ put the object on a face of its
    region; 2,639 / 1,382 with room (2,723 / 1,392 behind two shards).
    """
    assert dense_run["updates"] <= 3_600
    assert dense_run["counters"]["sim.installs.poll_floored"] <= 2_100


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_world_keeps_every_quarantine_invariant(seed):
    """After every update: ``validate(queries=True)`` clean — the tables
    and indexes agree, and no quarantine invariant is breached."""
    sim = SRBSimulation(
        DENSE.with_overrides(seed=seed),
        queries=dense_queries(seed, unordered_every=3),
    )
    server = sim.server
    handle = server.handle_location_update
    checked = 0

    def checked_update(oid, position, time=0.0):
        nonlocal checked
        outcome = handle(oid, position, time)
        server.validate(queries=True)
        checked += 1
        return outcome

    server.handle_location_update = checked_update
    sim.run()
    assert checked >= 1_000

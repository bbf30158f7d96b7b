"""Elastic topology: live shard add/remove and merge exactness.

Two contracts from docs/SHARDING.md are pinned here:

* **Minimal, consistent migration** — ``add_shard``/``remove_shard``
  move exactly the objects of the cells the rendezvous map re-homes,
  keep ``validate()`` green mid- and post-migration, and leave the
  cluster bit-identical to one that ran the final topology from the
  start (same report stream, same merged results, same home table).

* **Merge exactness under staleness** — with ``refresh_probes`` the
  coordinator re-ranks boundary kNN candidates at their *true* (probed)
  positions, restoring closed-loop accuracy to >= 0.99 where the
  held-position merge drifts to ~0.91-0.95; the probe premium is a
  measured communication cost, not a hidden one.
"""

import random

import pytest

from repro.core import DatabaseServer, KNNQuery, RangeQuery, ServerConfig
from repro.geometry import Point, Rect
from repro.obs import EventLog, MetricsRegistry
from repro.obs.diagnose import diagnose
from repro.sharding import RebalancePolicy, ShardedServer, ShardMap
from repro.simulation.engine import SRBSimulation
from repro.simulation.scenario import Scenario


def _make_world(seed, n=90):
    rng = random.Random(seed)
    return {f"o{i}": Point(rng.random(), rng.random()) for i in range(n)}


def _make_stream(seed, world, ticks=40, movers=18):
    positions = dict(world)
    rng = random.Random(seed + 1)
    stream = []
    for tick in range(1, ticks + 1):
        batch = []
        for oid in rng.sample(sorted(positions), movers):
            p = positions[oid]
            positions[oid] = Point(
                min(max(p.x + rng.gauss(0, 0.015), 0.0), 1.0),
                min(max(p.y + rng.gauss(0, 0.015), 0.0), 1.0),
            )
            batch.append((oid, positions[oid]))
        stream.append((tick * 1.0, batch))
    return stream


class _Oracle:
    def __init__(self, world):
        self.positions = dict(world)

    def __call__(self, oid):
        return self.positions[oid]

    def apply(self, batch):
        for oid, p in batch:
            self.positions[oid] = p


def _queries(rng):
    out = []
    for i in range(8):
        if i % 2:
            x, y = rng.random() * 0.85, rng.random() * 0.85
            out.append(RangeQuery(Rect(x, y, x + 0.14, y + 0.14),
                                  query_id=f"r{i}"))
        else:
            out.append(KNNQuery(Point(rng.random(), rng.random()), 3,
                                query_id=f"k{i}"))
    return out


def _drive(server, oracle, world, stream, seed, reshard=None):
    """Replay ``stream``; ``reshard`` maps tick -> callable(server, t).

    Validates the whole cluster after every batch — the elastic runs
    must hold the home-table/membership invariants *mid-migration*, not
    just at rest.
    """
    rng = random.Random(seed + 2)
    server.load_objects(sorted(world.items()), 0.0)
    queries = _queries(rng)
    for q in queries:
        server.register_query(q, 0.0)
    per_tick = []
    for tick, (t, batch) in enumerate(stream):
        if reshard and tick in reshard:
            reshard[tick](server, t)
            server.validate()
        oracle.apply(batch)
        server.handle_location_updates(batch, t)
        server.validate()
        per_tick.append({q.query_id: q.result_snapshot() for q in queries})
    return per_tick


# ----------------------------------------------------------------------
# Elastic equivalence: grow/shrink mid-run == fixed final topology
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [41, 42])
def test_grow_matches_fixed_topology_of_final_shard_set(seed):
    world = _make_world(seed)
    stream = _make_stream(seed, world)
    config = ServerConfig(grid_m=16, max_speed=0.04)
    grow_tick = 15

    o1 = _Oracle(world)
    elastic = ShardedServer(o1, config, n_shards=2)
    a = _drive(elastic, o1, world, stream, seed,
               reshard={grow_tick: lambda s, t: s.add_shard(time=t)})

    o2 = _Oracle(world)
    fixed = ShardedServer(o2, config, n_shards=3)
    b = _drive(fixed, o2, world, stream, seed)

    # From the grow tick on, the elastic run is indistinguishable from a
    # cluster that was 3-wide all along: the migration re-ranked every
    # moved object through the same evict-and-add path an update takes.
    assert a[grow_tick:] == b[grow_tick:]
    assert elastic._homes == fixed._homes
    assert elastic.live_shard_ids() == (0, 1, 2)
    assert elastic.shard_object_counts() == fixed.shard_object_counts()


@pytest.mark.parametrize("victim", [0, 1])
def test_shrink_matches_holey_fixed_topology(victim):
    seed = 43
    world = _make_world(seed)
    stream = _make_stream(seed, world)
    config = ServerConfig(grid_m=16, max_speed=0.04)
    shrink_tick = 15

    o1 = _Oracle(world)
    elastic = ShardedServer(o1, config, n_shards=3)
    a = _drive(
        elastic, o1, world, stream, seed,
        reshard={shrink_tick: lambda s, t: s.remove_shard(victim, time=t)},
    )

    survivors = sorted({0, 1, 2} - {victim})
    o2 = _Oracle(world)
    fixed = ShardedServer(o2, config, shard_ids=survivors)
    b = _drive(fixed, o2, world, stream, seed)

    assert a[shrink_tick:] == b[shrink_tick:]
    assert elastic._homes == fixed._homes
    assert elastic.retired_shards() == frozenset({victim})
    assert elastic.live_shard_ids() == tuple(survivors)
    assert elastic.shard_object_counts()[victim] == 0


def test_elastic_run_still_matches_single_server():
    """Transitivity check straight against the baseline server."""
    seed = 44
    world = _make_world(seed)
    stream = _make_stream(seed, world)
    config = ServerConfig(grid_m=16, max_speed=0.04)

    o1 = _Oracle(world)
    single = DatabaseServer(o1, config)
    baseline = _drive(single, o1, world, stream, seed)

    o2 = _Oracle(world)
    elastic = ShardedServer(o2, config, n_shards=2)
    merged = _drive(
        elastic, o2, world, stream, seed,
        reshard={
            10: lambda s, t: s.add_shard(time=t),
            20: lambda s, t: s.add_shard(time=t),
            30: lambda s, t: s.remove_shard(1, time=t),
        },
    )
    assert merged == baseline
    assert elastic.live_shard_ids() == (0, 2, 3)
    assert elastic.object_count == single.object_count


def test_add_shard_migrates_exactly_the_moved_cells_objects():
    seed = 45
    world = _make_world(seed, n=120)
    oracle = _Oracle(world)
    config = ServerConfig(grid_m=16)
    metrics = MetricsRegistry()
    cluster = ShardedServer(oracle, config, n_shards=2, metrics=metrics)
    cluster.load_objects(sorted(world.items()), 0.0)

    before = ShardMap(2, 16)
    after = before.with_shard(2)
    moved = set(before.moved_cells(after))
    homes_before = dict(cluster._homes)

    cluster.add_shard(time=1.0)
    for oid, home in cluster._homes.items():
        p = oracle.positions[oid]
        cell = cluster.router.cell_of(p)
        if cell in moved:
            assert home == 2
        else:
            # Objects on unmoved cells were not touched.
            assert home == homes_before[oid]
    counters = metrics.to_dict()["counters"]
    assert counters["shard.rebalance.moved_cells"] == len(moved)
    assert counters["shard.rebalance.moved_objects"] == sum(
        1 for oid, p in oracle.positions.items()
        if cluster.router.cell_of(p) in moved
    )
    cluster.validate()


# ----------------------------------------------------------------------
# Lifecycle edge cases (the bugfix half of the issue)
# ----------------------------------------------------------------------
def _small_cluster(n_shards=2, **kwargs):
    world = _make_world(7, n=30)
    oracle = _Oracle(world)
    cluster = ShardedServer(
        oracle, ServerConfig(grid_m=14), n_shards=n_shards, **kwargs
    )
    cluster.load_objects(sorted(world.items()), 0.0)
    return cluster


def test_kill_shard_refuses_last_live_dead_and_removed():
    cluster = _small_cluster(n_shards=3)
    cluster.remove_shard(2, time=1.0)
    with pytest.raises(ValueError, match="removed and cannot be killed"):
        cluster.kill_shard(2, time=2.0)
    cluster.kill_shard(0, time=3.0)
    with pytest.raises(ValueError, match="already dead"):
        cluster.kill_shard(0, time=4.0)
    # Shard 1 is the only live one left; killing it must refuse with a
    # clear message (the seed miscounted retirees and allowed this).
    with pytest.raises(ValueError, match="last live shard"):
        cluster.kill_shard(1, time=5.0)


def test_remove_shard_refuses_bad_targets():
    cluster = _small_cluster(n_shards=3)
    with pytest.raises(ValueError, match="no such shard"):
        cluster.remove_shard(99, time=1.0)
    cluster.remove_shard(1, time=1.0)
    with pytest.raises(ValueError, match="already removed"):
        cluster.remove_shard(1, time=2.0)
    cluster.kill_shard(0, time=3.0)
    with pytest.raises(ValueError, match="dead shards present"):
        cluster.remove_shard(2, time=4.0)
    with pytest.raises(ValueError, match="dead shards present"):
        cluster.add_shard(time=4.0)


def test_remove_shard_refuses_last_live():
    cluster = _small_cluster(n_shards=2)
    cluster.remove_shard(0, time=1.0)
    with pytest.raises(ValueError, match="last live shard"):
        cluster.remove_shard(1, time=2.0)


def test_remove_shard_migrates_residents_a_probe_moved_off_its_cells():
    """A probe updates a held position without re-homing the object, so
    a shard can hold an object in a cell it does not own; retiring the
    shard must still move it (it used to stay homed on the retired
    slot, and its next report failed)."""
    world = {
        "x": Point(0.2, 0.2), "y": Point(0.8, 0.8),
        "z": Point(0.8, 0.2), "w": Point(0.2, 0.8),
    }
    truth = dict(world)
    cluster = ShardedServer(
        lambda oid: truth[oid], ServerConfig(grid_m=2), n_shards=2
    )
    cluster.load_objects(sorted(world.items()), 0.0)
    home = cluster.shard_of_object("x")
    foreign = next(
        cell for cell in [(0, 0), (0, 1), (1, 0), (1, 1)]
        if cluster.map.shard_of(cell) != home
    )
    truth["x"] = Point(foreign[0] * 0.5 + 0.26, foreign[1] * 0.5 + 0.26)
    outcome = cluster.register_query(
        KNNQuery(Point(0.5, 0.5), 4, query_id="k"), 1.0
    )
    assert "x" in outcome.probed and cluster.shard_of_object("x") == home
    cluster.remove_shard(home, 2.0)
    assert cluster.shard_of_object("x") != home
    cluster.handle_location_update("x", truth["x"], 3.0)
    cluster.validate()


def test_retired_slot_refuses_calls_with_context():
    cluster = _small_cluster(n_shards=2)
    cluster.remove_shard(1, time=1.0)
    with pytest.raises(RuntimeError, match="shard 1 was removed"):
        cluster._shards[1].call("object_count")


# ----------------------------------------------------------------------
# Empty-shard observability (satellite: gauges/stats stay well-defined)
# ----------------------------------------------------------------------
def test_imbalance_gauge_is_defined_with_zero_objects():
    metrics = MetricsRegistry()
    oracle = _Oracle({})
    cluster = ShardedServer(
        oracle, ServerConfig(grid_m=14), n_shards=2, metrics=metrics
    )
    cluster.refresh_index_gauges()
    gauges = metrics.to_dict()["gauges"]
    # An empty cluster is perfectly balanced, not NaN/stale.
    assert gauges["shard.objects.imbalance"] == 1.0


def test_retired_and_empty_shards_render_in_stats_snapshots():
    metrics = MetricsRegistry()
    cluster = _small_cluster(n_shards=3, metrics=metrics)
    cluster.remove_shard(1, time=1.0)
    snapshots = cluster.shard_metrics_snapshots()
    # The retired slot still renders: its registry was frozen at
    # retirement, so `repro stats` keeps the full per-shard history.
    assert set(snapshots) == {"shard0", "shard1", "shard2"}
    assert all(isinstance(v, dict) for v in snapshots.values())


# ----------------------------------------------------------------------
# Occupancy-driven rebalancing
# ----------------------------------------------------------------------
class TestRebalancePolicy:
    def test_parse_round_trips_every_key(self):
        policy = RebalancePolicy.parse(
            "min=2,max=6,grow-occupancy=50,grow-imbalance=1.5,"
            "shrink-occupancy=10,cooldown=2.5"
        )
        assert policy.min_shards == 2
        assert policy.max_shards == 6
        assert policy.grow_occupancy == 50.0
        assert policy.grow_imbalance == 1.5
        assert policy.shrink_occupancy == 10.0
        assert policy.cooldown == 2.5

    def test_parse_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(ValueError):
            RebalancePolicy.parse("grow=1")
        with pytest.raises(ValueError):
            RebalancePolicy.parse("max=lots")
        with pytest.raises(ValueError):
            RebalancePolicy.parse("min=3,max=2")

    def test_decide_grows_on_hot_imbalanced_census(self):
        policy = RebalancePolicy(
            max_shards=4, grow_occupancy=10.0, grow_imbalance=1.2
        )
        assert policy.decide({0: 50, 1: 10}, now=5.0,
                             last_action_at=None) == "grow"

    def test_decide_holds_when_balanced_or_capped(self):
        policy = RebalancePolicy(
            max_shards=2, grow_occupancy=10.0, grow_imbalance=1.2
        )
        # At max_shards: never grow, however hot.
        assert policy.decide({0: 500, 1: 20}, 5.0, None) is None
        balanced = RebalancePolicy(
            max_shards=4, grow_occupancy=10.0, grow_imbalance=2.0
        )
        assert balanced.decide({0: 30, 1: 28}, 5.0, None) is None

    def test_decide_shrinks_the_emptiest_shard(self):
        policy = RebalancePolicy(
            min_shards=2, shrink_occupancy=20.0, grow_occupancy=1e9
        )
        action = policy.decide({0: 10, 1: 2, 2: 9}, 5.0, None)
        assert action == ("shrink", 1)
        # At min_shards: hold.
        assert policy.decide({0: 1, 1: 1}, 5.0, None) is None

    def test_cooldown_suppresses_actions(self):
        policy = RebalancePolicy(
            max_shards=4, grow_occupancy=1.0, grow_imbalance=1.0,
            cooldown=5.0,
        )
        assert policy.decide({0: 50, 1: 10}, now=3.0,
                             last_action_at=0.0) is None
        assert policy.decide({0: 50, 1: 10}, now=6.0,
                             last_action_at=0.0) == "grow"


def test_maybe_rebalance_grows_and_respects_cooldown():
    metrics = MetricsRegistry()
    events = EventLog()
    cluster = _small_cluster(n_shards=2, metrics=metrics, events=events)
    policy = RebalancePolicy(
        max_shards=3, grow_occupancy=5.0, grow_imbalance=1.0, cooldown=10.0
    )
    outcome = cluster.maybe_rebalance(policy, time=1.0)
    assert outcome is not None
    assert cluster.live_shard_ids() == (0, 1, 2)
    assert cluster.last_rebalance_at == 1.0
    # Within the cooldown the policy holds even though the census would
    # still trigger.
    assert cluster.maybe_rebalance(policy, time=2.0) is None
    assert cluster.live_shard_ids() == (0, 1, 2)
    counters = metrics.to_dict()["counters"]
    assert counters["shard.rebalance.checks"] == 2
    assert counters["shard.rebalance.grows"] == 1
    kinds = [e.kind for e in events.events()]
    assert "rebalance" in kinds and "shard_added" in kinds
    cluster.validate()


# ----------------------------------------------------------------------
# Merge exactness: refresh probes close the stale-position gap
# ----------------------------------------------------------------------
def test_refresh_probes_restore_closed_loop_knn_accuracy():
    """The tentpole number: >= 0.98 accuracy with probes on, two points
    above the same seeded closed loop with probes off.

    Ground truth is the simulation's own accuracy checkpoint (results
    against true client positions) — the same metric ``repro compare``
    reports and the shard bench records.

    It read ``>= 0.99`` while every other kNN safe region was left
    within one position poll: a refresh probe fires when a report comes
    in, so part of that accuracy was bought by storm traffic.  With room
    in the regions (DESIGN.md §6 item 1) the same world reads 0.9896.
    """
    base = dict(num_objects=240, num_queries=16, duration=3.0,
                seed=3, shards=3, grid_m=14)
    stale = SRBSimulation(Scenario(refresh_probes=False, **base)).run()
    fresh = SRBSimulation(Scenario(refresh_probes=True, **base)).run()

    assert stale.extras["shards"]["refresh_probes"] == 0
    assert fresh.extras["shards"]["refresh_probes"] > 0
    assert stale.accuracy < 0.97  # the bug is visible at this scale
    assert fresh.accuracy >= 0.98
    assert fresh.accuracy >= stale.accuracy + 0.02
    # The exactness is bought with probe traffic, and that traffic is
    # accounted as communication cost, not hidden.
    assert fresh.costs.probes > stale.costs.probes


def test_refresh_probes_preserve_report_equivalence():
    """With no unreported drift (every oracle position equals the last
    report), probing must change nothing: same merged results as the
    probe-free cluster and the single server."""
    seed = 46
    world = _make_world(seed)
    stream = _make_stream(seed, world)
    config = ServerConfig(grid_m=16, max_speed=0.04)

    o1 = _Oracle(world)
    plain = ShardedServer(o1, config, n_shards=3)
    a = _drive(plain, o1, world, stream, seed)

    o2 = _Oracle(world)
    probing = ShardedServer(o2, config, n_shards=3, refresh_probes=True)
    b = _drive(probing, o2, world, stream, seed)

    assert a == b
    assert probing.refresh_probe_count > 0


# ----------------------------------------------------------------------
# Engine wiring: --reshard / --rebalance scenarios and diagnose
# ----------------------------------------------------------------------
def test_scenario_reshard_grammar():
    s = Scenario(shards=2, duration=4.0, reshard="+@1.0,-1@2.5,+@3.0")
    assert s.parsed_reshard() == [
        ("add", None, 1.0), ("remove", 1, 2.5), ("add", None, 3.0)
    ]
    with pytest.raises(ValueError, match="reshard items"):
        Scenario(shards=2, reshard="grow@1").parsed_reshard()
    with pytest.raises(ValueError):
        Scenario(shards=0, reshard="+@1.0")
    with pytest.raises(ValueError):  # beyond the run
        Scenario(shards=2, duration=2.0, reshard="+@3.0")
    with pytest.raises(ValueError):
        Scenario(shards=0, refresh_probes=True)
    with pytest.raises(ValueError):
        Scenario(shards=2, rebalance="bogus=1")


def test_engine_elasticity_drill_stays_green():
    """The CI drill in miniature: grow then shrink mid-run, the event
    stream carries consistent reshard events, and diagnose passes."""
    events = EventLog(capacity=200000)
    scenario = Scenario(
        num_objects=160, num_queries=10, duration=2.5, seed=5,
        shards=2, grid_m=14, reshard="+@1.0,-1@1.8",
    )
    sim = SRBSimulation(scenario, events=events)
    report = sim.run()
    shards = report.extras["shards"]
    assert shards["live"] == [0, 2]
    assert shards["retired"] == [1]
    reshards = [e for e in events.events()
                if e.kind in ("shard_added", "shard_removed")]
    assert [e.kind for e in reshards] == ["shard_added", "shard_removed"]
    assert all(e.data["consistent"] for e in reshards)
    diag = diagnose([e.to_dict() for e in events.events()])
    assert diag.ok, [str(v) for v in diag.violations]


def test_engine_rebalance_policy_grows_under_load():
    scenario = Scenario(
        num_objects=160, num_queries=10, duration=2.5, seed=5,
        shards=2, grid_m=14,
        rebalance="max=3,grow-occupancy=5,grow-imbalance=1.0,cooldown=99",
    )
    report = SRBSimulation(scenario).run()
    shards = report.extras["shards"]
    assert shards["n_shards"] == 3
    assert shards["live"] == [0, 1, 2]

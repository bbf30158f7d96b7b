"""Run the monitoring schemes side by side over a shared scenario.

All schemes of one scenario share the same trajectories and the same
(memoised) ground-truth result series, so their accuracy numbers are
comparable and the exact evaluation work is paid once.  Every scheme that
mutates query state (SRB) receives a freshly generated — but, thanks to
deterministic seeding, parameter-identical — copy of the workload.
"""

from __future__ import annotations

from typing import Iterable, Literal

from repro.baselines.optimal import optimal_report
from repro.baselines.periodic import PRDSimulation
from repro.baselines.qindex import QIndexSimulation
from repro.mobility.waypoint import RandomWaypointModel
from repro.obs import MetricsRegistry, TimeSeriesSampler
from repro.simulation.engine import SRBSimulation
from repro.simulation.metrics import SchemeReport
from repro.simulation.scenario import Scenario
from repro.simulation.truth import GroundTruth
from repro.workloads.generator import generate_queries

SchemeName = Literal["SRB", "OPT", "PRD(1)", "PRD(0.1)", "QIDX(0.1)"]

DEFAULT_SCHEMES: tuple[SchemeName, ...] = ("SRB", "OPT", "PRD(1)", "PRD(0.1)")


def build_truth(scenario: Scenario) -> GroundTruth:
    """Trajectories + workload + memoised exact results for a scenario."""
    model = RandomWaypointModel(
        scenario.mean_speed,
        scenario.mean_period,
        scenario.space,
        seed=scenario.seed,
    )
    trajectories = model.build(range(scenario.num_objects), scenario.duration)
    queries = generate_queries(scenario.workload(), seed=scenario.seed)
    return GroundTruth(trajectories, queries)


def run_schemes(
    scenario: Scenario,
    schemes: Iterable[SchemeName] = DEFAULT_SCHEMES,
    truth: GroundTruth | None = None,
    metrics: bool = False,
    events=None,
    timeseries: bool = False,
) -> dict[str, SchemeReport]:
    """Run the requested schemes over one scenario; reports keyed by name.

    With ``metrics=True`` every simulated scheme gets its own fresh
    :class:`~repro.obs.MetricsRegistry`, and its snapshot lands on
    ``SchemeReport.metrics`` (OPT replays recorded truth and has no
    instrumented server, so its snapshot stays empty).

    ``events`` (an :class:`~repro.obs.EventLog`) and ``timeseries``
    instrument the **SRB scheme only** — the baselines replay recorded
    truth or batch-reevaluate without a :class:`DatabaseServer`, so they
    have no event stream to record.  ``timeseries=True`` implies a
    metrics registry for SRB (the sampler reads counters) and attaches
    per-checkpoint series to its report snapshot.
    """
    if truth is None:
        truth = build_truth(scenario)
    def registry() -> MetricsRegistry | None:
        return MetricsRegistry() if metrics else None

    reports: dict[str, SchemeReport] = {}
    for scheme in schemes:
        if scheme == "SRB":
            fresh = generate_queries(scenario.workload(), seed=scenario.seed)
            srb_registry = registry()
            sampler = None
            if timeseries:
                if srb_registry is None:
                    srb_registry = MetricsRegistry()
                sampler = TimeSeriesSampler(srb_registry)
            reports[scheme] = SRBSimulation(
                scenario, queries=fresh, truth=truth, metrics=srb_registry,
                events=events, sampler=sampler,
            ).run()
        elif scheme == "OPT":
            reports[scheme] = optimal_report(scenario, truth=truth)
        elif scheme.startswith("PRD(") and scheme.endswith(")"):
            t_prd = float(scheme[4:-1])
            fresh = generate_queries(scenario.workload(), seed=scenario.seed)
            reports[scheme] = PRDSimulation(
                scenario, t_prd, queries=fresh, truth=truth,
                metrics=registry(),
            ).run()
        elif scheme.startswith("QIDX(") and scheme.endswith(")"):
            t_prd = float(scheme[5:-1])
            fresh = generate_queries(scenario.workload(), seed=scenario.seed)
            reports[scheme] = QIndexSimulation(
                scenario, t_prd, queries=fresh, truth=truth,
                metrics=registry(),
            ).run()
        else:
            raise ValueError(f"unknown scheme: {scheme!r}")
    return reports


def sweep(
    base: Scenario,
    parameter: str,
    values: Iterable,
    schemes: Iterable[SchemeName] = DEFAULT_SCHEMES,
) -> list[tuple[object, dict[str, SchemeReport]]]:
    """Run all schemes across a one-parameter sweep.

    Scenarios differing only in ``delay`` share trajectories and truth;
    any other parameter changes the world, so truth is rebuilt per value.
    """
    results = []
    shared_truth = build_truth(base) if parameter == "delay" else None
    for value in values:
        scenario = base.with_overrides(**{parameter: value})
        truth = shared_truth if parameter == "delay" else None
        results.append((value, run_schemes(scenario, schemes, truth=truth)))
    return results

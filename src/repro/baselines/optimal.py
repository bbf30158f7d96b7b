"""The OPT scheme: clairvoyant optimal monitoring (Section 7).

OPT clients have perfect knowledge of all queries and all other objects;
each sends an update exactly when its own movement changes some query's
result.  OPT is infeasible in practice but provides (a) the ground-truth
result series against which accuracy is measured and (b) a lower bound on
the number of location updates.
"""

from __future__ import annotations

from repro.core.queries import Query
from repro.mobility.waypoint import RandomWaypointModel
from repro.simulation.metrics import CommunicationCosts, SchemeReport
from repro.simulation.scenario import Scenario
from repro.simulation.truth import GroundTruth, opt_update_count
from repro.workloads.generator import generate_queries


def optimal_report(
    scenario: Scenario,
    queries: list[Query] | None = None,
    truth: GroundTruth | None = None,
) -> SchemeReport:
    """Simulate OPT by replaying the exact result series.

    Communication cost counts one source-initiated update per true result
    change (see :func:`~repro.simulation.truth.opt_update_count`); accuracy
    is 1 by definition — OPT *is* the yardstick.
    """
    if truth is None:
        model = RandomWaypointModel(
            scenario.mean_speed,
            scenario.mean_period,
            scenario.space,
            seed=scenario.seed,
        )
        trajectories = model.build(
            range(scenario.num_objects), scenario.duration
        )
        if queries is None:
            queries = generate_queries(scenario.workload(), seed=scenario.seed)
        truth = GroundTruth(trajectories, queries)
    elif queries is None:
        queries = truth.queries

    costs = CommunicationCosts()
    previous = None
    for t in scenario.opt_sample_times():
        current = truth.evaluate_at(t)
        costs.updates += opt_update_count(previous, current, queries)
        previous = current

    total_distance = 0.0
    return SchemeReport(
        scheme="OPT",
        num_objects=scenario.num_objects,
        num_queries=len(queries),
        duration=scenario.duration,
        accuracy=1.0,
        costs=costs,
        cpu_seconds=0.0,
        total_distance=total_distance,
    )

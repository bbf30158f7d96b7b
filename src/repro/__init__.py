"""repro — safe-region-based monitoring of continuous spatial queries.

A from-scratch reproduction of Hu, Xu & Lee, *"A Generic Framework for
Monitoring Continuous Spatial Queries over Moving Objects"* (SIGMOD 2005):
the safe-region framework (server, query evaluation/reevaluation with lazy
probes, safe-region geometry), its substrates (a grid query index whose
cells also index the objects' safe regions, random-waypoint mobility, a
discrete event simulator), the paper's baselines (periodic and optimal
monitoring) and the related-work Q-index, and a benchmark harness
regenerating every figure of the evaluation.

Quick start::

    from repro import (
        DatabaseServer, KNNQuery, Point, RangeQuery, Rect, ServerConfig,
    )

    positions = {"taxi-1": Point(0.2, 0.3), "taxi-2": Point(0.7, 0.7)}
    server = DatabaseServer(position_oracle=positions.__getitem__)
    query = KNNQuery(Point(0.5, 0.5), k=1)
    server.bootstrap(positions.items(), [query])
    assert query.results == ["taxi-2"]
"""

from repro.baselines import PRDSimulation, optimal_report
from repro.core import (
    DatabaseServer,
    KNNQuery,
    Query,
    RangeQuery,
    ResultChange,
    ServerConfig,
    UpdateOutcome,
)
from repro.geometry import Circle, Point, Rect, Ring
from repro.index import BruteForceIndex, GridIndex
from repro.mobility import MobileClient, RandomWaypointModel, Trajectory
from repro.simulation import (
    GroundTruth,
    Scenario,
    SchemeReport,
    SRBSimulation,
)
from repro.workloads import WorkloadConfig, generate_queries

__version__ = "1.0.0"

__all__ = [
    "DatabaseServer",
    "ServerConfig",
    "Query",
    "RangeQuery",
    "KNNQuery",
    "ResultChange",
    "UpdateOutcome",
    "Point",
    "Rect",
    "Circle",
    "Ring",
    "GridIndex",
    "BruteForceIndex",
    "MobileClient",
    "RandomWaypointModel",
    "Trajectory",
    "Scenario",
    "GroundTruth",
    "SchemeReport",
    "SRBSimulation",
    "PRDSimulation",
    "optimal_report",
    "WorkloadConfig",
    "generate_queries",
    "__version__",
]

"""Structured observability: metrics, events, time series, diagnostics.

The cost model of the paper (wireless messages vs. server CPU time,
Section 7.1) is this package's reason to exist: every pipeline phase of
the monitoring server, the grid index, the event-driven simulator, and
the baselines reports into one :class:`MetricsRegistry` through
:class:`Tracer` spans and counters, so a run can answer *where the
cycles and messages went* without ad-hoc ``perf_counter`` plumbing.

Beyond the aggregate layer, :class:`EventLog` records a typed
structured-event stream (flight recorder + JSONL spill),
:class:`TimeSeriesSampler` resolves counters over simulated time, and
:func:`diagnose` replays a stream against the framework's invariants —
together they answer *why* a run was expensive, not just that it was.

By default all instrumented code receives :data:`NULL_REGISTRY` and
:data:`NULL_EVENT_LOG`, shared no-ops whose cost is one attribute check
— benchmarks and the CLI opt into real instances (``--metrics-out``,
``--events-out``).  See docs/OBSERVABILITY.md for the metric and event
vocabularies.
"""

from repro.obs.diagnose import DiagnosticsReport, Finding, diagnose
from repro.obs.events import (
    EVENT_KINDS,
    NULL_EVENT_LOG,
    Event,
    EventLog,
    NullEventLog,
    causal_chain,
    filter_events,
    read_events,
    timeline,
)
from repro.obs.export import (
    histogram_quantile,
    load_metrics,
    render_document,
    render_snapshot,
    write_json,
    write_jsonl,
)
from repro.obs.profile import (
    NULL_PROFILER,
    PHASES,
    NullProfiler,
    TickProfiler,
    empty_profile,
    folded_lines,
    merge_profiles,
    occupancy_summary,
    phase_budget,
    render_profile,
)
from repro.obs.registry import (
    COUNT_BUCKETS,
    NULL_REGISTRY,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.timeseries import DEFAULT_SERIES, TimeSeries, TimeSeriesSampler
from repro.obs.trace import Tracer

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_SERIES",
    "EVENT_KINDS",
    "NULL_EVENT_LOG",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "PHASES",
    "TIME_BUCKETS",
    "Counter",
    "DiagnosticsReport",
    "Event",
    "EventLog",
    "Finding",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullEventLog",
    "NullProfiler",
    "NullRegistry",
    "TickProfiler",
    "TimeSeries",
    "TimeSeriesSampler",
    "Tracer",
    "causal_chain",
    "diagnose",
    "empty_profile",
    "filter_events",
    "folded_lines",
    "histogram_quantile",
    "load_metrics",
    "merge_profiles",
    "occupancy_summary",
    "phase_budget",
    "read_events",
    "render_document",
    "render_profile",
    "render_snapshot",
    "timeline",
    "write_json",
    "write_jsonl",
]

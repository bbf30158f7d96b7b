"""Tests for per-tick time-series sampling of registry instruments."""

import pytest

from repro.obs import (
    DEFAULT_SERIES,
    MetricsRegistry,
    TimeSeries,
    TimeSeriesSampler,
)
from repro.simulation.engine import SRBSimulation
from repro.simulation.scenario import Scenario


class TestTimeSeries:
    def test_append_and_len(self):
        series = TimeSeries("x")
        series.append(0.0, 1.0)
        series.append(1.0, 4.0)
        assert len(series) == 2
        assert series.to_dict() == {"t": [0.0, 1.0], "v": [1.0, 4.0]}

    def test_deltas_difference_adjacent_samples(self):
        series = TimeSeries("x")
        for t, v in ((0.0, 3.0), (1.0, 3.0), (2.0, 10.0)):
            series.append(t, v)
        assert series.deltas() == [3.0, 0.0, 7.0]

    def test_deltas_empty(self):
        assert TimeSeries("x").deltas() == []


class TestSampler:
    def test_samples_counters_and_gauges(self):
        registry = MetricsRegistry()
        counter = registry.counter("server.probes")
        gauge = registry.gauge("object_index.wide")
        sampler = TimeSeriesSampler(registry)
        counter.inc(3)
        gauge.set(2)
        sampler.sample(1.0)
        counter.inc(2)
        sampler.sample(2.0)
        data = sampler.to_dict()
        assert data["server.probes"] == {"t": [1.0, 2.0], "v": [3, 5]}
        assert data["object_index.wide"] == {"t": [1.0, 2.0], "v": [2, 2]}

    def test_absent_instruments_are_skipped_until_they_appear(self):
        registry = MetricsRegistry()
        sampler = TimeSeriesSampler(registry, names=("server.probes",))
        sampler.sample(1.0)  # instrument doesn't exist yet
        assert sampler.to_dict() == {}
        registry.counter("server.probes").inc()
        sampler.sample(2.0)
        # The series starts at its first real observation — no fake zero.
        assert sampler.to_dict()["server.probes"]["t"] == [2.0]

    def test_cadence_keeps_every_nth_call(self):
        registry = MetricsRegistry()
        registry.counter("server.probes")
        sampler = TimeSeriesSampler(
            registry, names=("server.probes",), cadence=3
        )
        for t in range(7):
            sampler.sample(float(t))
        # Calls 1, 4, 7 survive (1-indexed): t = 0, 3, 6.
        assert sampler.to_dict()["server.probes"]["t"] == [0.0, 3.0, 6.0]

    def test_cadence_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(MetricsRegistry(), cadence=0)

    def test_default_series_cover_the_hot_instruments(self):
        for name in (
            "server.location_updates",
            "server.probes",
            "grid.cache.hits",
            "object_index.wide",
        ):
            assert name in DEFAULT_SERIES

    def test_custom_names_limit_the_tracked_set(self):
        registry = MetricsRegistry()
        registry.counter("server.probes").inc()
        registry.counter("grid.lookups").inc()
        sampler = TimeSeriesSampler(registry, names=("grid.lookups",))
        sampler.sample(1.0)
        assert set(sampler.to_dict()) == {"grid.lookups"}


class TestSimulationIntegration:
    def test_sampler_rides_the_accuracy_checkpoints(self):
        scenario = Scenario(
            num_objects=60,
            num_queries=4,
            duration=1.0,
            sample_interval=0.25,
            seed=5,
        )
        registry = MetricsRegistry()
        sampler = TimeSeriesSampler(registry)
        report = SRBSimulation(
            scenario, metrics=registry, sampler=sampler
        ).run()
        data = sampler.to_dict()
        assert data, "sampler recorded nothing"
        updates = data["server.location_updates"]
        assert len(updates["t"]) >= 3  # one point per checkpoint
        assert updates["v"] == sorted(updates["v"])  # counters are cumulative
        # The snapshot document carries the series for `repro stats`.
        assert report.metrics["timeseries"] == data

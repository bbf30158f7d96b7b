"""Per-tick time series over registry instruments.

End-of-run snapshots hide everything that happens *inside* a run: a
probe cascade at tick 512 and a quiet steady state average out to the
same counter totals.  A :class:`TimeSeriesSampler` closes that gap by
sampling selected counters and gauges at a configurable cadence —
the simulator calls :meth:`~TimeSeriesSampler.sample` at every accuracy
checkpoint — producing compact parallel-array series that export
alongside the snapshot document (under the ``"timeseries"`` key of a
scheme's snapshot) and render via ``repro stats``.

Counters are cumulative; consumers that want per-interval activity
difference adjacent samples (:meth:`TimeSeries.deltas`).
"""

from __future__ import annotations

#: Instruments sampled when the caller does not choose their own set.
DEFAULT_SERIES: tuple[str, ...] = (
    "server.location_updates",
    "server.probes",
    "server.safe_region_pushes",
    "server.update.fastpath",
    "server.sr_recompute.skipped",
    "grid.lookups",
    "grid.cache.hits",
    "grid.cache.misses",
    "grid.occupied_cells",
    "object_index.wide",
)


class TimeSeries:
    """One named series as two parallel arrays (timestamps, values)."""

    __slots__ = ("name", "ts", "vs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.ts: list[float] = []
        self.vs: list[float] = []

    def append(self, t: float, value: float) -> None:
        self.ts.append(t)
        self.vs.append(value)

    def __len__(self) -> int:
        return len(self.ts)

    def deltas(self) -> list[float]:
        """Per-interval increments (first sample measured from zero).

        The natural reading for cumulative counters; meaningless for
        gauges, which should be read from ``vs`` directly.
        """
        out = []
        previous = 0.0
        for value in self.vs:
            out.append(value - previous)
            previous = value
        return out

    def to_dict(self) -> dict:
        return {"t": list(self.ts), "v": list(self.vs)}


class TimeSeriesSampler:
    """Samples registry instruments into :class:`TimeSeries`.

    * ``registry`` — the :class:`~repro.obs.registry.MetricsRegistry`
      to read (instruments that don't exist yet are skipped until they
      appear, so series never invent zeros for phases that predate the
      instrument).
    * ``names`` — instrument names to track (:data:`DEFAULT_SERIES`).
    * ``cadence`` — keep every ``cadence``-th call to :meth:`sample`;
      the knob that trades resolution for memory on long runs.
    """

    def __init__(self, registry, names=None, cadence: int = 1) -> None:
        if cadence < 1:
            raise ValueError("cadence must be a positive sample stride")
        self.registry = registry
        self.names = tuple(names) if names is not None else DEFAULT_SERIES
        self.cadence = cadence
        self._calls = 0
        self._series: dict[str, TimeSeries] = {}

    def sample(self, t: float) -> None:
        """Record the current value of every tracked instrument at ``t``."""
        self._calls += 1
        if (self._calls - 1) % self.cadence:
            return
        value_of = self.registry.value_of
        for name in self.names:
            value = value_of(name)
            if value is None:
                continue
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = TimeSeries(name)
            series.append(t, value)

    @property
    def series(self) -> dict[str, TimeSeries]:
        return dict(self._series)

    def to_dict(self) -> dict:
        """``{name: {"t": [...], "v": [...]}}`` — the export shape."""
        return {
            name: series.to_dict()
            for name, series in sorted(self._series.items())
        }

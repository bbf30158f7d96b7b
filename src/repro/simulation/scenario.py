"""Experiment scenarios (Table 7.1, scaled for laptop execution).

The paper simulates N = 100,000 objects for 5,000 logical time units on two
dedicated PCs.  The defaults here preserve the *densities* that drive the
algorithms' behaviour while remaining minutes-scale on one machine:

* ``q_len`` is scaled so a range query covers a few objects in expectation
  (the paper: 0.005² x 100k ≈ 2.5 objects per query).
* ``grid_m`` is scaled so a cell holds a handful of objects, as M = 50
  does at paper scale.

Every figure-reproduction bench can override any field; running at full
paper scale is only a matter of passing the Table 7.1 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.faults import FaultPlan
from repro.geometry.rect import Rect
from repro.workloads.generator import WorkloadConfig

UNIT_SPACE = Rect(0.0, 0.0, 1.0, 1.0)


@dataclass(frozen=True, slots=True)
class Scenario:
    """All knobs of one simulation run."""

    num_objects: int = 2000
    num_queries: int = 100
    mean_speed: float = 0.01          # paper's v-bar
    mean_period: float = 0.1          # paper's t_v-bar (scaled; see module doc)
    q_len: float = 0.035              # selectivity-preserving (paper: 0.005)
    k_max: int = 5
    grid_m: int = 20                  # cell-density-preserving (paper: 50)
    delay: float = 0.0                # tau, one-way propagation delay
    duration: float = 10.0            # paper: 5000 time units
    sample_interval: float = 0.05     # accuracy checkpoint spacing
    #: Minimum time between a client installing a safe region and its next
    #: boundary-crossing report — the client's position-polling (GPS)
    #: granularity.  Bounds the worst-case update rate of an object pinned
    #: against a quarantine boundary by a genuinely adjacent competitor.
    client_poll_interval: float = 1e-3
    #: Checkpoint spacing for counting OPT's result-change events.  Must be
    #: finer than ``sample_interval``: rank flips oscillate, and two coarse
    #: snapshots that happen to agree hide every crossing in between,
    #: flattering OPT.  ``None`` derives ``sample_interval / 5``.
    opt_sample_interval: float | None = None
    seed: int = 0
    order_sensitive: bool = True
    use_reachability: bool = False    # Section 6.1 enhancement
    #: Keep quarantine invariants exact under the reachability constraint
    #: (install + push tightened regions).  False = the paper's semantics.
    reachability_pushes: bool = True
    steadiness: float = 0.0           # Section 6.2 enhancement (D)
    #: Ablation switch (Section 5.3).
    batch_range_regions: bool = True
    #: Fault injection (docs/ROBUSTNESS.md): a ``FaultPlan`` spec string
    #: such as ``"drop=0.05,dup=0.02,delay=2"`` (``--faults``), or
    #: ``None`` for the paper's perfectly reliable channel.  ``delay``
    #: here counts *ticks* of ``sample_interval``.
    fault_spec: str | None = None
    fault_seed: int = 0
    #: Spatial sharding (docs/SHARDING.md): split the grid across this
    #: many shard servers behind a routing coordinator (``--shards``).
    #: ``0`` runs the paper's single server.
    shards: int = 0
    #: ``> 0`` runs each shard as a ``multiprocessing`` worker process;
    #: ``0`` keeps shards in-process, which is result-equivalent to the
    #: single-server baseline (``--shard-workers``).
    shard_workers: int = 0
    #: Shard-failure drill: ``"SHARD@TIME"`` kills that shard mid-run
    #: and the cluster continues in degraded mode (``--kill-shard``).
    kill_shard: str | None = None
    #: Exact cross-shard kNN merges: probe boundary candidates whose
    #: held positions may be stale before ranking (``--refresh-probes``).
    refresh_probes: bool = False
    #: Elasticity drill: comma-separated ``+@TIME`` (add a shard) and
    #: ``-SHARD@TIME`` (remove that shard) events (``--reshard``).
    reshard: str | None = None
    #: Occupancy-driven rebalancing: a ``RebalancePolicy`` spec string
    #: such as ``"max=6,grow-imbalance=1.5,cooldown=2"`` checked at
    #: every sample tick (``--rebalance``).
    rebalance: str | None = None
    #: How long a client waits for its new safe region before
    #: retransmitting the report (lost uplink or downlink).  ``None``
    #: derives a bound covering the worst faulted round trip.  Only
    #: active when ``fault_spec`` is set.
    retransmit_timeout: float | None = None
    space: Rect = UNIT_SPACE

    def __post_init__(self) -> None:
        if self.num_objects < 1:
            raise ValueError("need at least one object")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.client_poll_interval <= 0:
            raise ValueError("client_poll_interval must be positive")
        if self.fault_spec is not None:
            # Fail fast on a malformed spec — parse() raises ValueError.
            FaultPlan.parse(self.fault_spec)
        if self.retransmit_timeout is not None and self.retransmit_timeout <= 0:
            raise ValueError("retransmit_timeout must be positive")
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        if self.shard_workers and not self.shards:
            raise ValueError("shard_workers requires shards > 0")
        if self.kill_shard is not None:
            shard_id, kill_at = self.parsed_kill_shard()
            if not self.shards:
                raise ValueError("kill_shard requires shards > 0")
            if not 0 <= shard_id < self.shards:
                raise ValueError(
                    f"kill_shard names shard {shard_id}, "
                    f"but there are only {self.shards}"
                )
            if self.shards < 2:
                raise ValueError("cannot kill the only shard")
            if not 0 < kill_at <= self.duration:
                raise ValueError("kill_shard time must fall inside the run")
        if self.refresh_probes and not self.shards:
            raise ValueError("refresh_probes requires shards > 0")
        if self.reshard is not None:
            if not self.shards:
                raise ValueError("reshard requires shards > 0")
            for action, shard_id, at in self.parsed_reshard():
                if action == "remove" and not 0 <= shard_id:
                    raise ValueError("reshard names a negative shard id")
                if not 0 < at <= self.duration:
                    raise ValueError(
                        "reshard times must fall inside the run"
                    )
        if self.rebalance is not None:
            if not self.shards:
                raise ValueError("rebalance requires shards > 0")
            from repro.sharding.rebalance import RebalancePolicy

            # Fail fast on a malformed spec — parse() raises ValueError.
            RebalancePolicy.parse(self.rebalance)

    @property
    def max_speed(self) -> float:
        """Hard speed bound of the waypoint model (``2 v_mean``)."""
        return 2.0 * self.mean_speed

    def workload(self) -> WorkloadConfig:
        """Query-mix parameters derived from this scenario."""
        return WorkloadConfig(
            num_queries=self.num_queries,
            q_len=self.q_len,
            k_max=self.k_max,
            order_sensitive=self.order_sensitive,
            space=self.space,
        )

    def sample_times(self) -> list[float]:
        """Accuracy checkpoints: multiples of ``sample_interval``."""
        count = int(math.floor(self.duration / self.sample_interval))
        return [round(i * self.sample_interval, 9) for i in range(1, count + 1)]

    def opt_sample_times(self) -> list[float]:
        """Finer checkpoints for counting OPT's result-change events."""
        interval = self.opt_sample_interval
        if interval is None:
            interval = self.sample_interval / 5.0
        count = int(math.floor(self.duration / interval))
        return [round(i * interval, 9) for i in range(1, count + 1)]

    def parsed_kill_shard(self) -> tuple[int, float]:
        """The ``kill_shard`` spec as ``(shard_id, time)``."""
        if self.kill_shard is None:
            raise ValueError("no kill_shard spec set")
        try:
            shard_text, _, time_text = self.kill_shard.partition("@")
            return int(shard_text), float(time_text)
        except ValueError as exc:
            raise ValueError(
                f"kill_shard must look like 'SHARD@TIME', "
                f"got {self.kill_shard!r}"
            ) from exc

    def parsed_reshard(self) -> list[tuple[str, int | None, float]]:
        """The ``reshard`` spec as ``(action, shard_id, time)`` triples.

        ``("add", None, t)`` for ``+@t``; ``("remove", s, t)`` for
        ``-s@t``.  Sorted by time so the engine can schedule them in
        replay order.
        """
        if self.reshard is None:
            raise ValueError("no reshard spec set")
        events: list[tuple[str, int | None, float]] = []
        for item in self.reshard.split(","):
            item = item.strip()
            if not item:
                continue
            head, sep, time_text = item.partition("@")
            try:
                if not sep:
                    raise ValueError(item)
                at = float(time_text)
                if head == "+":
                    events.append(("add", None, at))
                elif head.startswith("-"):
                    events.append(("remove", int(head[1:]), at))
                else:
                    raise ValueError(item)
            except ValueError as exc:
                raise ValueError(
                    "reshard items must look like '+@TIME' or "
                    f"'-SHARD@TIME', got {item!r}"
                ) from exc
        return sorted(events, key=lambda e: e[2])

    def rebalance_policy(self):
        """The parsed ``RebalancePolicy``, or ``None`` when unset."""
        if self.rebalance is None:
            return None
        from repro.sharding.rebalance import RebalancePolicy

        return RebalancePolicy.parse(self.rebalance)

    def fault_plan(self) -> FaultPlan | None:
        """The parsed, seeded :class:`FaultPlan`, or ``None`` (reliable)."""
        if self.fault_spec is None:
            return None
        return FaultPlan.parse(self.fault_spec, seed=self.fault_seed)

    def with_overrides(self, **kwargs) -> "Scenario":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


def scaled_q_len(num_objects: int, objects_per_query: float = 2.5) -> float:
    """Query side length putting ``objects_per_query`` in a range query."""
    return math.sqrt(objects_per_query / num_objects)

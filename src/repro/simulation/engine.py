"""Event-driven simulation of the SRB scheme (Section 7).

The simulator is exact: safe-region exits are computed analytically from
the piecewise-linear trajectories, so location updates fire at the precise
boundary-crossing instants — there is no polling and no time step.  The
one-way propagation delay ``tau`` applies to both directions: the server
receives an update ``tau`` after the client sends it, and the client
installs its new safe region ``tau`` after the server computes it.

Event kinds, in processing priority at equal timestamps:

1. ``exit``           — a client crosses its safe-region boundary (sends).
2. ``recv_update``    — the server receives a source-initiated update.
3. ``recv_region``    — a client installs a safe region from the server.
4. ``sample``         — an accuracy checkpoint is taken.
5. ``client_timeout`` — a client gives up waiting for its safe region
   and retransmits its report (fault injection only).

With ``Scenario.fault_spec`` set, both protocol directions and the
probe channel run through :class:`repro.faults.FaultyChannel`: reports
and regions can be dropped, duplicated, or delayed whole ticks of
``sample_interval`` (which reorders them), and probes can time out
(:class:`repro.faults.ProbeTimeout`, handled by the server's retry +
degraded-mode machinery) or answer stale.  Clients arm a retransmit
timer per report so a lost message in either direction cannot silence
an object forever (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

import heapq
import itertools
import math

from repro.core.queries import Query
from repro.core.server import DatabaseServer, ServerConfig
from repro.faults import ProbeTimeout
from repro.mobility.client import Clients, MobileClient
from repro.mobility.waypoint import (
    RandomWaypointModel,
    exit_times_from_rects,
    total_distance_travelled,
)
from repro.obs import NULL_EVENT_LOG, NULL_REGISTRY, Tracer
from repro.runtime import paused_gc
from repro.simulation.metrics import (
    AccuracyAccumulator,
    CommunicationCosts,
    SchemeReport,
)
from repro.simulation.scenario import Scenario
from repro.simulation.truth import GroundTruth
from repro.workloads.generator import generate_queries

_PRIO_EXIT = 0
_PRIO_RECV_UPDATE = 1
_PRIO_RECV_REGION = 2
_PRIO_SAMPLE = 3
_PRIO_TIMEOUT = 4


class SRBSimulation:
    """One run of the safe-region-based monitoring scheme."""

    @paused_gc()
    def __init__(
        self,
        scenario: Scenario,
        queries: list[Query] | None = None,
        truth: GroundTruth | None = None,
        metrics=None,
        events=None,
        sampler=None,
        profile: bool = False,
        profile_max_ticks: int | None = None,
        profile_top_k: int = 10,
    ) -> None:
        self.scenario = scenario
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        #: Structured-event stream threaded into the server (flight
        #: recorder); the shared no-op unless a recorder is attached.
        self.events = NULL_EVENT_LOG if events is None else events
        #: Optional :class:`~repro.obs.TimeSeriesSampler` resolved at
        #: every accuracy checkpoint; its series land on the report's
        #: metrics snapshot under ``"timeseries"``.
        self.sampler = sampler
        self._trace = Tracer(self.metrics)
        #: Monitoring-period region installs the client would have left
        #: before its next position poll — the update storm as a number
        #: (docs/OBSERVABILITY.md).
        self._m_poll_floored = self.metrics.counter(
            "sim.installs.poll_floored"
        )
        if truth is None:
            model = RandomWaypointModel(
                scenario.mean_speed,
                scenario.mean_period,
                scenario.space,
                seed=scenario.seed,
            )
            if queries is None:
                queries = generate_queries(
                    scenario.workload(), seed=scenario.seed
                )
            # Every leg to the end of the run, in columns.
            truth = GroundTruth(
                model.build(range(scenario.num_objects), scenario.duration),
                queries,
            )
        elif queries is None:
            queries = truth.queries
        self.queries = queries
        self.truth = truth
        #: Client state in columns this simulation owns, over the truth's
        #: trajectories; the per-event path reads it through ``clients``.
        self._clients = self.clients = Clients(truth.trajectories())
        #: Fault injection (docs/ROBUSTNESS.md).  ``None`` reproduces the
        #: paper's perfectly reliable channel bit-for-bit; otherwise both
        #: protocol directions and the probe channel are independently
        #: seeded :class:`~repro.faults.FaultyChannel` instances, and
        #: ``delay`` in the plan counts ticks of ``sample_interval``.
        self.faults = scenario.fault_plan()
        self._fault_tick = scenario.sample_interval
        if self.faults is not None and self.faults.message_faults:
            self._up = self.faults.channel("uplink")
            self._down = self.faults.channel("downlink")
        else:
            self._up = self._down = None
        self._probe_channel = (
            self.faults.channel("probe")
            if self.faults is not None and self.faults.probe_faults
            else None
        )
        if self._up is not None:
            # Worst faulted round trip: both propagation legs plus the
            # maximum injected lag, padded a tick so a maximally delayed
            # region still beats the timer.
            self._retransmit_timeout = (
                scenario.retransmit_timeout
                if scenario.retransmit_timeout is not None
                else 2.0 * scenario.delay
                + (self.faults.delay + 2) * self._fault_tick
            )
        else:
            self._retransmit_timeout = None
        faulted = self.faults is not None
        server_config = ServerConfig(
                grid_m=scenario.grid_m,
                space=scenario.space,
                max_speed=(
                    scenario.max_speed if scenario.use_reachability else None
                ),
                reachability_pushes=scenario.reachability_pushes,
                steadiness=scenario.steadiness,
                batch_range_regions=scenario.batch_range_regions,
                # Under faults, duplicated/reordered reports are normal
                # traffic — never crash on them — and degraded regions
                # get the waypoint model's hard speed bound so widening
                # stays tight (§6.1) even when reachability is off.
                on_unknown_object="drop" if faulted else "raise",
                degraded_max_speed=(
                    scenario.max_speed if faulted else None
                ),
        )
        if scenario.shards:
            from repro.sharding import ShardedServer

            # Spatially sharded deployment (docs/SHARDING.md): same
            # config per shard, merged results behind the same API.
            self.server = ShardedServer(
                self._probe_oracle,
                server_config,
                n_shards=scenario.shards,
                n_workers=scenario.shard_workers,
                metrics=self.metrics,
                events=self.events,
                refresh_probes=scenario.refresh_probes,
            )
        else:
            self.server = DatabaseServer(
                position_oracle=self._probe_oracle,
                metrics=self.metrics,
                events=self.events,
                config=server_config,
            )
        #: Tick-phase profiling (docs/OBSERVABILITY.md "Profiling and
        #: cost attribution").  When enabled the server — single or
        #: sharded, same surface — attributes every tick's wall time to
        #: named phases; the merged summary lands on the report under
        #: ``extras["profile"]``.
        self._profiling = bool(profile)
        self._profile_top_k = profile_top_k
        if self._profiling:
            self.server.profile_start(max_ticks=profile_max_ticks)
        #: Occupancy-driven elasticity (docs/SHARDING.md): checked at
        #: every accuracy checkpoint, so the census the policy reads is
        #: the same one the imbalance gauge publishes.
        self._rebalance_policy = (
            scenario.rebalance_policy() if scenario.shards else None
        )
        self.costs = CommunicationCosts()
        self.accuracy = AccuracyAccumulator()
        self._now = 0.0
        self._heap: list = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _schedule(self, t: float, priority: int, kind: str, payload) -> None:
        heapq.heappush(self._heap, (t, priority, next(self._seq), kind, payload))

    def _post(self, t: float, priority: int, kind: str, payload) -> None:
        """Schedule a message, or handle it at once when it is due now and
        nothing pending precedes it (τ = 0): it would pop next, as its
        ``seq`` exceeds every pending one, and its handler schedules
        nothing before ``now + client_poll_interval``."""
        heap = self._heap
        if t == self._now and (not heap or heap[0][:2] > (t, priority)):
            self._counters[kind].inc()
            self._handlers[kind](*payload)
        else:
            self._schedule(t, priority, kind, payload)

    def _probe_oracle(self, oid):
        """Server-initiated probe: the client's exact current position.

        With probe faults injected, one attempt can time out
        (:class:`ProbeTimeout` — the server retries with backoff) or
        answer with the position ``stale_age`` ticks in the past.
        """
        if self._probe_channel is not None:
            outcome = self._probe_channel.probe_outcome()
            if outcome == "timeout":
                raise ProbeTimeout(f"probe of {oid!r} timed out")
            if outcome == "stale":
                stale_t = max(
                    self._now - self.faults.stale_age * self._fault_tick, 0.0
                )
                return self.clients[oid].position_at(stale_t)
        return self.clients[oid].position_at(self._now)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @paused_gc()
    def _bootstrap(self) -> None:
        """Load objects, register queries, and hand out initial regions.

        Bootstrap is instantaneous (no propagation delay): the paper's
        monitoring period starts with a consistent, fully set-up system.
        Every client reports its exact position in the same instant, so
        the server sets up in one pass (``bootstrap``) and probes nobody.
        """
        self._now = 0.0
        clients = self._clients
        trajectories = clients.trajectories
        granted = self.server.bootstrap(
            (
                (oid, trajectory.position_at(0.0))
                for oid, trajectory in trajectories.items()
            ),
            self.queries,
            0.0,
        )
        horizon = self.scenario.duration
        poll = self.scenario.client_poll_interval
        # Each client of the fresh table adopts its region (column-wise)
        # and schedules its first exit in client order, for ``seq`` ties.
        clients.regions[:] = regions = [granted[oid] for oid in clients]
        first_exits = exit_times_from_rects(
            trajectories.values(), regions, 0.0, horizon
        )
        epochs = clients.epochs
        for row, (oid, exit_at) in enumerate(zip(clients, first_exits)):
            epochs[row] += 1
            exit_at = max(exit_at, poll)
            if exit_at <= horizon:
                self._schedule(exit_at, _PRIO_EXIT, "exit", (oid, epochs[row]))
        for t in self.scenario.sample_times():
            self._schedule(t, _PRIO_SAMPLE, "sample", ())
        if self.scenario.kill_shard is not None:
            shard_id, kill_at = self.scenario.parsed_kill_shard()
            self._schedule(kill_at, _PRIO_EXIT, "kill_shard", (shard_id,))
        if self.scenario.reshard is not None:
            for action, shard_id, at in self.scenario.parsed_reshard():
                self._schedule(at, _PRIO_EXIT, "reshard", (action, shard_id))

    def run(self) -> SchemeReport:
        """Execute the full scenario and return the report."""
        kinds = ("exit", "retry", "recv_update", "recv_region", "sample",
                 "client_timeout", "kill_shard", "reshard")
        counter = self.metrics.counter
        self._counters = counters = {k: counter(f"sim.events.{k}") for k in kinds}
        self._handlers = handlers = {k: getattr(self, f"_on_{k}") for k in kinds}
        with self._trace.span("sim.run"):
            self._bootstrap()
            scenario = self.scenario
            while self._heap:
                t, _, _, kind, payload = heapq.heappop(self._heap)
                if t > scenario.duration:
                    break
                self._now = t
                counters[kind].inc()
                handlers[kind](*payload)
        self.server.refresh_index_gauges()
        total_distance = total_distance_travelled(
            self._clients.trajectories.values(), 0.0, scenario.duration
        )
        self.costs = CommunicationCosts.from_server_stats(
            self.server.stats, updates=self.costs.updates
        )
        snapshot = self.metrics.to_dict() if self.metrics.enabled else {}
        if scenario.shards and self.metrics.enabled:
            # One metrics section per live shard rides on the snapshot
            # (``repro stats`` renders them alongside the coordinator's).
            snapshot = dict(snapshot)
            snapshot["shards"] = self.server.shard_metrics_snapshots()
        if self.sampler is not None:
            # Per-tick series ride on the metrics snapshot so one
            # ``--metrics-out`` document carries both shapes; ``repro
            # stats`` renders the extra section.
            snapshot = dict(snapshot)
            snapshot["timeseries"] = self.sampler.to_dict()
        extras = {
            "reevaluations": self.server.stats.queries_reevaluated,
            "result_changes": self.server.stats.result_changes,
        }
        if self.faults is not None:
            extras["faults"] = self._fault_summary()
        if self._profiling:
            # Snapshot before ``close()`` tears down shard workers; the
            # sharded snapshot merges every shard's summary.
            extras["profile"] = self.server.profile_snapshot(
                self._profile_top_k
            )
        if scenario.shards:
            extras["shards"] = {
                "n_shards": self.server.n_shards,
                "n_workers": self.server.n_workers,
                "live": list(self.server.live_shard_ids()),
                "dead": sorted(self.server.dead_shards()),
                "retired": sorted(self.server.retired_shards()),
                "objects": self.server.shard_object_counts(),
                "busy_seconds": self.server.shard_busy_seconds(),
                "route_seconds": self.server.route_seconds,
                "merge_seconds": self.server.merge_seconds,
                "refresh_probes": self.server.refresh_probe_count,
            }
            self.server.close()
        return SchemeReport(
            scheme="SRB",
            num_objects=scenario.num_objects,
            num_queries=len(self.queries),
            duration=scenario.duration,
            accuracy=self.accuracy.value,
            costs=self.costs,
            cpu_seconds=self.server.stats.cpu_seconds,
            total_distance=total_distance,
            extras=extras,
            metrics=snapshot,
        )

    def _fault_summary(self) -> dict:
        """Realised fault statistics for the report (faulted runs only)."""
        summary: dict = {"plan": self.faults.describe()}
        for label, channel in (
            ("uplink", self._up),
            ("downlink", self._down),
            ("probe", self._probe_channel),
        ):
            if channel is not None:
                summary[label] = {
                    "sent": channel.sent,
                    "dropped": channel.dropped,
                    "duplicated": channel.duplicated,
                    "delayed": channel.delayed,
                }
        stats = self.server.stats
        summary["server"] = {
            "probe_timeouts": stats.probe_timeouts,
            "probe_retries": stats.probe_retries,
            "unknown_updates": stats.unknown_updates,
            "time_regressions": stats.time_regressions,
            "degraded_entries": stats.degraded_entries,
        }
        return summary

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _send_update(self, client: MobileClient) -> None:
        client.begin_update()
        self._transmit(client)

    def _transmit(self, client: MobileClient) -> None:
        """Send (or resend) a client's report over the uplink.

        Each transmission reads the client's *current* position — a
        retransmission after a lost round trip reports where the object
        is now, not where it was when the lost report was sent.
        """
        position = client.position_at(self._now)
        self.costs.updates += 1
        base = self._now + self.scenario.delay
        if self._up is None:
            self._post(
                base, _PRIO_RECV_UPDATE, "recv_update", (client.oid, position)
            )
        else:
            for lag in self._up.deliveries():
                self._schedule(
                    base + lag * self._fault_tick,
                    _PRIO_RECV_UPDATE,
                    "recv_update",
                    (client.oid, position),
                )
        if self._retransmit_timeout is not None:
            timeout_at = self._now + self._retransmit_timeout
            if timeout_at <= self.scenario.duration:
                self._schedule(
                    timeout_at,
                    _PRIO_TIMEOUT,
                    "client_timeout",
                    (client.oid, client.epoch),
                )

    def _on_client_timeout(self, oid, epoch: int) -> None:
        """Retransmit a report whose round trip evidently got lost."""
        if self._clients.current(oid, epoch, awaiting=True):
            self._transmit(self.clients[oid])

    def _on_exit(self, oid, epoch: int) -> None:
        if self._clients.current(oid, epoch):
            self._send_update(self.clients[oid])

    def _on_retry(self, oid, epoch: int) -> None:
        """Poll-paced recheck after installing an already-left region.

        If the client wandered back inside in the meantime, monitoring
        resumes without a message; otherwise it reports now.
        """
        if not self._clients.current(oid, epoch):
            return
        client = self.clients[oid]
        position = client.position_at(self._now)
        region = client.safe_region
        if region is not None and region.contains_point(position, eps=1e-12):
            horizon = self.scenario.duration
            exit_at = max(
                client.next_exit_time(self._now, horizon),
                self._now + self.scenario.client_poll_interval,
            )
            if exit_at <= horizon and not math.isinf(exit_at):
                self._schedule(exit_at, _PRIO_EXIT, "exit", (oid, client.epoch))
            return
        self._send_update(client)

    def _deliver_region(self, target, region, at_once=True) -> None:
        """Send one safe region down to a client, through the faults;
        ``at_once=False`` keeps it in the heap even at τ = 0."""
        base = self._now + self.scenario.delay
        if self._down is None:
            post = self._post if at_once else self._schedule
            post(base, _PRIO_RECV_REGION, "recv_region", (target, region))
            return
        for lag in self._down.deliveries():
            self._schedule(
                base + lag * self._fault_tick,
                _PRIO_RECV_REGION,
                "recv_region",
                (target, region),
            )

    def _on_recv_update(self, oid, position) -> None:
        outcome = self.server.handle_location_update(oid, position, self._now)
        if outcome.safe_region is not None:
            self._deliver_region(oid, outcome.safe_region)
        for target, region in outcome.probed.items():
            self._deliver_region(target, region)
        # ``outcome.missed`` targets have no deliverable region — they
        # went degraded server-side and recover at their next probe or
        # their own next boundary-crossing report.

    def _on_recv_region(self, oid, region) -> None:
        client = self.clients[oid]
        if client.install_safe_region(region, self._now):
            horizon = self.scenario.duration
            exit_at = client.next_exit_time(self._now, horizon)
            # Clients poll their position at a finite granularity; a fresh
            # safe region is therefore observed for at least one interval.
            next_poll = self._now + self.scenario.client_poll_interval
            if exit_at < next_poll:
                self._m_poll_floored.inc()
                exit_at = next_poll
            if exit_at <= horizon and not math.isinf(exit_at):
                self._schedule(exit_at, _PRIO_EXIT, "exit", (oid, client.epoch))
        else:
            # Already outside the freshly installed region (communication
            # delay).  The client notices at its next position poll and
            # reports again — an immediate resend would ping-pong with the
            # server under moderate delay, roughly doubling the cost.
            retry_at = self._now + self.scenario.client_poll_interval
            if retry_at <= self.scenario.duration:
                self._schedule(
                    retry_at, _PRIO_EXIT, "retry", (oid, client.epoch)
                )

    def _on_kill_shard(self, shard_id) -> None:
        self.server.kill_shard(shard_id, time=self._now)

    def _on_reshard(self, action: str, shard_id) -> None:
        """Apply one scheduled elastic topology change, live.

        Migration evicts can probe and re-region other objects; those
        regions must reach their clients exactly like update-path
        regions, or the closed loop desynchronises.
        """
        if action == "add":
            outcome = self.server.add_shard(self._now)
        else:
            outcome = self.server.remove_shard(shard_id, self._now)
        for target, region in outcome.probed.items():
            self._deliver_region(target, region)

    def _maybe_rebalance(self) -> None:
        outcome = self.server.maybe_rebalance(
            self._rebalance_policy, self._now
        )
        if outcome is not None:
            # The sample that rebalances reads the metrics next, so its
            # regions wait their turn in the heap.
            for target, region in outcome.probed.items():
                self._deliver_region(target, region, at_once=False)

    def _on_sample(self) -> None:
        if self._rebalance_policy is not None:
            self._maybe_rebalance()
        true_results = self.truth.evaluate_at(self._now)
        matches = 0
        for query in self.queries:
            match = query.result_snapshot() == true_results[query.query_id]
            matches += match
            self.accuracy.record(match)
        if self.events.enabled:
            self.events.set_time(self._now)
            self.events.emit(
                "sample", matches=matches, comparisons=len(self.queries)
            )
        if self.sampler is not None:
            self.sampler.sample(self._now)

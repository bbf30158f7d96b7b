"""Invariant checking and anomaly detection over recorded event streams.

:func:`diagnose` replays a stream recorded by
:class:`~repro.obs.events.EventLog` (live objects or a JSONL file read
back via :func:`~repro.obs.events.read_events`) and produces a
:class:`DiagnosticsReport` with two classes of findings:

**Violations** — breaches of invariants the construction guarantees
(DESIGN.md maps each to the paper's result it operationalises):

* ``containment`` — every installed safe region and every shrink push
  must contain the position it was computed for (the quarantine
  soundness underlying Propositions 5.2–5.5: a safe region is an
  inscribed rectangle of the intersection of quarantine constraints,
  which by construction covers the object's last reported location).
  Regions flagged ``degraded`` are exempt: a degraded region is widened
  around a *stale* position precisely because the true one is unknown
  (docs/ROBUSTNESS.md), so last-report containment is not its contract.
* ``monotonic_time`` — event timestamps must never decrease along the
  stream; the :class:`~repro.obs.events.EventLog` clock clamps
  regressions, so a decreasing ``t`` means the recorder is corrupt.
* ``reshard_consistency`` — every elastic topology change
  (``shard_added`` / ``shard_removed`` events) must complete with a
  consistent home table: each object's coordinator-side home matches
  the shard that actually holds it.  A ``consistent: false`` flag means
  a migration tore mid-move — the same split-home state a snapshot
  taken between an evict and its add would capture, which
  ``restore_shards`` refuses for the same reason.
* ``ground_truth`` — with ``check_ground_truth=True``, every ``sample``
  event must report all queries matching the exact results (only sound
  when the run had zero communication delay; with ``tau > 0`` transient
  mismatches are expected and the check must stay off).

**Anomalies** — legal but pathological behaviour worth a look:

* ``probe_cascade`` — one root event (an update or a registration)
  transitively caused more than ``probe_cascade_threshold`` probes.
* ``shrink_storm`` — more than ``shrink_storm_threshold`` shrink pushes
  landed within one ``shrink_storm_window`` of simulated time (the
  §6.1 downlink-budget failure mode).
* ``retry_storm`` — more than ``retry_storm_threshold`` probe retries
  within one ``retry_storm_window`` of simulated time: the retry
  machinery is amplifying an outage instead of riding it out.
* ``stuck_degraded`` — an object entered degraded mode and never left
  it for more than ``stuck_degraded_timeout`` before the stream ended;
  conservative answers are still correct but uselessly wide.
* ``time_regression`` — the stream records clamped backwards-time
  updates (reordered reports); legal, but worth knowing about.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Finding:
    """One diagnostic finding anchored to the event stream."""

    check: str
    severity: str  # "violation" | "anomaly"
    t: float | None
    seq: int | None
    detail: str

    def row(self) -> dict:
        return {
            "severity": self.severity,
            "check": self.check,
            "t": "-" if self.t is None else f"{self.t:g}",
            "seq": "-" if self.seq is None else self.seq,
            "detail": self.detail,
        }


@dataclass(slots=True)
class DiagnosticsReport:
    """Everything one diagnostics pass concluded."""

    events_seen: int
    checks: tuple[str, ...]
    findings: list[Finding] = field(default_factory=list)

    @property
    def violations(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "violation"]

    @property
    def anomalies(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "anomaly"]

    @property
    def ok(self) -> bool:
        """True when no *invariant* was violated (anomalies may exist)."""
        return not self.violations

    def render(self) -> str:
        head = (
            f"== diagnostics: {self.events_seen} events, "
            f"checks: {', '.join(self.checks)}"
        )
        if not self.findings:
            return head + "\nno findings: all invariants hold"
        lines = [head]
        for finding in self.findings:
            row = finding.row()
            lines.append(
                f"{row['severity']:<9} {row['check']:<14} "
                f"t={row['t']:<10} seq={row['seq']:<8} {row['detail']}"
            )
        return "\n".join(lines)


def _contains(region, x: float, y: float, eps: float) -> bool:
    min_x, min_y, max_x, max_y = region
    return (
        min_x - eps <= x <= max_x + eps
        and min_y - eps <= y <= max_y + eps
    )


def diagnose(
    events: list,
    probe_cascade_threshold: int = 10,
    shrink_storm_threshold: int = 25,
    shrink_storm_window: float = 1.0,
    retry_storm_threshold: int = 30,
    retry_storm_window: float = 1.0,
    stuck_degraded_timeout: float = 5.0,
    check_ground_truth: bool = False,
    eps: float = 1e-9,
) -> DiagnosticsReport:
    """Run every diagnostic over ``events`` (dicts or ``Event`` objects)."""
    rows = [
        event if isinstance(event, dict) else event.to_dict()
        for event in events
    ]
    checks = [
        "containment", "monotonic_time", "probe_cascade", "shrink_storm",
        "retry_storm", "stuck_degraded", "time_regression",
        "reshard_consistency",
    ]
    if check_ground_truth:
        checks.append("ground_truth")
    report = DiagnosticsReport(events_seen=len(rows), checks=tuple(checks))

    _check_containment(rows, report, eps)
    _check_monotonic_time(rows, report)
    _check_probe_cascades(rows, report, probe_cascade_threshold)
    _check_shrink_storms(
        rows, report, shrink_storm_threshold, shrink_storm_window
    )
    _check_retry_storms(
        rows, report, retry_storm_threshold, retry_storm_window
    )
    _check_stuck_degraded(rows, report, stuck_degraded_timeout)
    _check_time_regressions(rows, report)
    _check_reshard_consistency(rows, report)
    if check_ground_truth:
        _check_ground_truth(rows, report)
    report.findings.sort(
        key=lambda f: (f.severity != "violation", f.seq or 0)
    )
    return report


def _check_containment(rows, report, eps) -> None:
    """Installed regions and shrink pushes contain their own positions."""
    for event in rows:
        if event.get("kind") not in ("safe_region", "shrink_push"):
            continue
        if event.get("degraded"):
            # Degraded regions are widened around a *stale* position —
            # the true one is unreachable — so this invariant does not
            # apply to them (docs/ROBUSTNESS.md).
            continue
        region = event.get("region")
        pos = event.get("pos")
        if region is None or pos is None:
            continue
        if not _contains(region, pos[0], pos[1], eps):
            report.findings.append(Finding(
                check="containment",
                severity="violation",
                t=event.get("t"),
                seq=event.get("seq"),
                detail=(
                    f"{event['kind']} for oid={event.get('oid')!r} lost its "
                    f"own location: pos={pos} outside region={region}"
                ),
            ))


def _root_of(seq: int, parents: dict) -> int:
    seen = set()
    while seq in parents and parents[seq] is not None and seq not in seen:
        seen.add(seq)
        seq = parents[seq]
    return seq


def _check_probe_cascades(rows, report, threshold) -> None:
    """No root event may transitively trigger a probe avalanche."""
    parents = {e["seq"]: e.get("cause") for e in rows if "seq" in e}
    first: dict[int, dict] = {}
    counts: dict[int, int] = {}
    for event in rows:
        if event.get("kind") != "probe":
            continue
        root = _root_of(event["seq"], parents)
        counts[root] = counts.get(root, 0) + 1
        first.setdefault(root, event)
    for root, count in sorted(counts.items()):
        if count > threshold:
            probe = first[root]
            report.findings.append(Finding(
                check="probe_cascade",
                severity="anomaly",
                t=probe.get("t"),
                seq=root,
                detail=(
                    f"{count} probes share root event #{root} "
                    f"(threshold {threshold}); inspect with "
                    f"'repro events FILE --chain {root}'"
                ),
            ))


def _check_shrink_storms(rows, report, threshold, window) -> None:
    """Shrink pushes must not saturate the downlink within one window."""
    if window <= 0:
        raise ValueError("shrink_storm_window must be positive")
    buckets: dict[int, list[dict]] = {}
    for event in rows:
        if event.get("kind") != "shrink_push":
            continue
        buckets.setdefault(int(event.get("t", 0.0) / window), []).append(event)
    for slot, pushes in sorted(buckets.items()):
        if len(pushes) > threshold:
            report.findings.append(Finding(
                check="shrink_storm",
                severity="anomaly",
                t=slot * window,
                seq=pushes[0].get("seq"),
                detail=(
                    f"{len(pushes)} shrink pushes within window "
                    f"[{slot * window:g}, {(slot + 1) * window:g}) "
                    f"(threshold {threshold})"
                ),
            ))


def _check_monotonic_time(rows, report) -> None:
    """Recorded timestamps never decrease along the stream.

    The :class:`~repro.obs.events.EventLog` clock clamps backwards time
    at emission, so a decreasing ``t`` in a recorded stream means the
    recorder itself is corrupt (or rows were reordered after the fact).
    """
    prev_t = None
    prev_seq = None
    for event in rows:
        t = event.get("t")
        if t is None:
            continue
        if prev_t is not None and t < prev_t:
            report.findings.append(Finding(
                check="monotonic_time",
                severity="violation",
                t=t,
                seq=event.get("seq"),
                detail=(
                    f"timestamp went backwards: t={t:g} after t={prev_t:g} "
                    f"(seq #{prev_seq})"
                ),
            ))
        prev_t = t
        prev_seq = event.get("seq")


def _check_retry_storms(rows, report, threshold, window) -> None:
    """Probe retries must not saturate the probe channel in one window."""
    if window <= 0:
        raise ValueError("retry_storm_window must be positive")
    buckets: dict[int, list[dict]] = {}
    for event in rows:
        if event.get("kind") != "probe_retry":
            continue
        buckets.setdefault(int(event.get("t", 0.0) / window), []).append(event)
    for slot, retries in sorted(buckets.items()):
        if len(retries) > threshold:
            report.findings.append(Finding(
                check="retry_storm",
                severity="anomaly",
                t=slot * window,
                seq=retries[0].get("seq"),
                detail=(
                    f"{len(retries)} probe retries within window "
                    f"[{slot * window:g}, {(slot + 1) * window:g}) "
                    f"(threshold {threshold}); the retry machinery is "
                    f"amplifying an outage"
                ),
            ))


def _check_stuck_degraded(rows, report, timeout) -> None:
    """No object may stay degraded for longer than ``timeout``.

    Conservative answers remain correct while degraded, but a region
    widened for that long covers so much space it is useless; a stuck
    episode usually means the probe channel is dead or the object left.
    """
    if timeout <= 0:
        raise ValueError("stuck_degraded_timeout must be positive")
    open_episodes: dict[str, dict] = {}
    end_t = 0.0
    for event in rows:
        end_t = max(end_t, event.get("t", 0.0))
        kind = event.get("kind")
        if kind == "degraded_enter":
            open_episodes[str(event.get("oid"))] = event
        elif kind in ("degraded_exit", "update"):
            # A fresh source report ends the episode just like a
            # successful probe does.
            open_episodes.pop(str(event.get("oid")), None)
    for oid, enter in sorted(open_episodes.items()):
        duration = end_t - enter.get("t", 0.0)
        if duration > timeout:
            report.findings.append(Finding(
                check="stuck_degraded",
                severity="anomaly",
                t=enter.get("t"),
                seq=enter.get("seq"),
                detail=(
                    f"oid={oid} degraded for {duration:g} without recovery "
                    f"by stream end (timeout {timeout:g})"
                ),
            ))


def _check_time_regressions(rows, report) -> None:
    """Surface clamped backwards-time updates as one aggregate anomaly."""
    regressions = [e for e in rows if e.get("kind") == "time_regression"]
    if regressions:
        first = regressions[0]
        report.findings.append(Finding(
            check="time_regression",
            severity="anomaly",
            t=first.get("t"),
            seq=first.get("seq"),
            detail=(
                f"{len(regressions)} update(s) carried a time earlier than "
                f"the server clock and were clamped (reordered reports)"
            ),
        ))


def _check_reshard_consistency(rows, report) -> None:
    """Every elastic topology change left a consistent home table.

    ``shard_added`` / ``shard_removed`` events carry the coordinator's
    post-migration audit: ``consistent`` is ``true`` iff every live
    shard's object table matches the home table.  ``false`` is a torn
    migration — some object's evict and add did not both land.
    """
    for event in rows:
        if event.get("kind") not in ("shard_added", "shard_removed"):
            continue
        if event.get("consistent", True):
            continue
        action = (
            "grow" if event["kind"] == "shard_added" else "shrink"
        )
        report.findings.append(Finding(
            check="reshard_consistency",
            severity="violation",
            t=event.get("t"),
            seq=event.get("seq"),
            detail=(
                f"elastic {action} of shard {event.get('shard')} left a "
                f"split home table (moved_cells="
                f"{event.get('moved_cells')}, moved_objects="
                f"{event.get('moved_objects')})"
            ),
        ))


def _check_ground_truth(rows, report) -> None:
    """Every accuracy checkpoint matched the exact results."""
    for event in rows:
        if event.get("kind") != "sample":
            continue
        matches = event.get("matches")
        comparisons = event.get("comparisons")
        if matches is None or comparisons is None:
            continue
        if matches < comparisons:
            report.findings.append(Finding(
                check="ground_truth",
                severity="violation",
                t=event.get("t"),
                seq=event.get("seq"),
                detail=(
                    f"{comparisons - matches}/{comparisons} queries "
                    f"diverged from ground truth at the checkpoint"
                ),
            ))

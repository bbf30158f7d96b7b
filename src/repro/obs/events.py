"""Typed structured-event stream and bounded flight recorder.

Where the metrics registry answers *how much* (counters, histograms),
the event stream answers *why*: every update, probe, shrink push,
reevaluation and cache invalidation is emitted as one :class:`Event`
carrying the simulation time, the object/query ids
involved, and a ``cause`` link — the sequence number of the event that
triggered it.  Following the cause links reconstructs full causal
chains (triggering update → affected query's reevaluation → probe →
result change), which is what ``repro events --chain`` renders and what
:mod:`repro.obs.diagnose` mines for probe cascades.

An :class:`EventLog` keeps the last ``capacity`` events in a ring
buffer (the **flight recorder**): after a failure or anomaly the recent
history is always reconstructable via :meth:`EventLog.dump`, no matter
how long the run was.  An optional ``sink`` additionally streams every
event through to a JSONL file as it happens (``--events-out``).

The zero-overhead contract of ``repro.obs`` holds: all instrumented
code receives :data:`NULL_EVENT_LOG` by default, whose ``enabled`` flag
is ``False``; hot paths guard emission with one attribute check and pay
nothing else.

Event vocabulary (``docs/OBSERVABILITY.md`` documents each field):

=================== ====================================================
kind                emitted when
=================== ====================================================
update              the server processes a source-initiated update
fastpath            that update was elided by the zero-churn fast path
probe               the server probes an object's exact position
probe_timeout       a probe attempt timed out (or hit the probe budget)
probe_retry         a timed-out probe is retried (with backoff)
shrink_push         a §6.1 reachability shrink is installed and pushed
reevaluation        one affected query is incrementally reevaluated
result_change       a reevaluation changed a query's result set
safe_region         a safe region is computed and installed
sr_skip             a recomputation is skipped via a valid certificate
cache_invalidation  a grid cell's membership generation is bumped
query_registered    a query enters monitoring
sample              the simulator takes an accuracy checkpoint
degraded_enter      an unreachable object enters degraded mode
degraded_exit       a fresh position ends an object's degraded episode
unknown_update      a report for an unknown object id was dropped
time_regression     an update carried a time earlier than the clock
shard_killed        the failure drill hard-stopped a shard
shard_added         an elastic grow migrated cells onto a new shard
shard_removed       an elastic shrink retired a shard, live
rebalance           the occupancy policy triggered a topology change
=================== ====================================================
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path

#: Every event kind the framework emits.
EVENT_KINDS = frozenset({
    "update",
    "fastpath",
    "probe",
    "shrink_push",
    "reevaluation",
    "result_change",
    "safe_region",
    "sr_skip",
    "cache_invalidation",
    "query_registered",
    "sample",
    "probe_timeout",
    "probe_retry",
    "degraded_enter",
    "degraded_exit",
    "unknown_update",
    "time_regression",
    "shard_killed",
    "shard_added",
    "shard_removed",
    "rebalance",
})


@dataclass(slots=True)
class Event:
    """One structured event.

    ``seq`` is unique and ascending within a log; ``cause`` is the
    ``seq`` of the triggering event (``None`` for root events such as a
    source-initiated update).  ``data`` holds the kind-specific fields
    (``oid``, ``query``, ``pos``, ``region``, …) and must stay
    JSON-serialisable.
    """

    seq: int
    t: float
    kind: str
    cause: int | None
    data: dict

    def to_dict(self) -> dict:
        return {"seq": self.seq, "t": self.t, "kind": self.kind,
                "cause": self.cause, **self.data}


class EventLog:
    """Bounded ring-buffer flight recorder with optional JSONL streaming.

    * ``capacity`` — how many recent events the ring retains
      (:meth:`events` / :meth:`dump` expose them).
    * ``sink`` — a path; when given, *every* event is also appended to
      it as one JSON line at emission time, so a crash loses nothing.

    The log carries its own clock (:meth:`set_time`): emitters that
    know the simulation time set it, emitters that don't (the grid)
    inherit the last value.
    """

    enabled = True

    def __init__(self, capacity: int = 4096, sink: str | Path | None = None):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self.now = 0.0
        self.time_regressions = 0
        self._seq = 0
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._sink = open(sink, "w") if sink is not None else None

    # ------------------------------------------------------------------
    def set_time(self, t: float) -> None:
        """Advance the log clock; subsequent events default to ``t``.

        The clock is monotone: an earlier ``t`` (a reordered report) is
        rejected so ``timeline()`` bucketing and per-tick sampling stay
        ordered.  Rejections are counted in ``time_regressions``; the
        server additionally emits a ``time_regression`` event so
        :func:`repro.obs.diagnose.diagnose` can surface them.
        """
        if t < self.now:
            self.time_regressions += 1
            return
        self.now = t

    def emit(self, kind: str, cause: int | None = None, **data) -> int:
        """Record one event; returns its sequence number (a cause handle)."""
        self._seq += 1
        event = Event(self._seq, self.now, kind, cause, data)
        self._ring.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event.to_dict()) + "\n")
        return self._seq

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    @property
    def total_emitted(self) -> int:
        """Events emitted over the log's lifetime (≥ ``len(log)``)."""
        return self._seq

    def events(self) -> list[Event]:
        """The retained events, oldest first."""
        return list(self._ring)

    def dump(self, path: str | Path) -> int:
        """Spill the ring buffer (the last ``capacity`` events) as JSONL.

        This is the flight-recorder export: call it after a failure or
        at run end to persist the recent history.  Returns the number
        of lines written.
        """
        with open(path, "w") as out:
            for event in self._ring:
                out.write(json.dumps(event.to_dict()) + "\n")
        return len(self._ring)

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


class NullEventLog:
    """The zero-overhead default: emission is a no-op behind one flag."""

    enabled = False
    now = 0.0
    time_regressions = 0

    def set_time(self, t: float) -> None:
        pass

    def emit(self, kind: str, cause: int | None = None, **data) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    @property
    def total_emitted(self) -> int:
        return 0

    def events(self) -> list:
        return []

    def dump(self, path) -> int:
        return 0

    def close(self) -> None:
        pass


#: Shared no-op event log; the default everywhere events are wired.
NULL_EVENT_LOG = NullEventLog()


# ----------------------------------------------------------------------
# Reading and analysing recorded streams
# ----------------------------------------------------------------------
def read_events(path: str | Path) -> list[dict]:
    """Load a JSONL event file (``--events-out`` or a flight-recorder
    spill) back into a list of event dicts, in file order."""
    events = []
    for raw in Path(path).read_text().splitlines():
        raw = raw.strip()
        if raw:
            events.append(json.loads(raw))
    return events


def filter_events(
    events: list[dict],
    kind: str | None = None,
    oid=None,
    query: str | None = None,
    t_min: float | None = None,
    t_max: float | None = None,
) -> list[dict]:
    """Subset of ``events`` matching every given criterion.

    ``oid`` matches the ``oid`` field; ``query`` the ``query`` field.
    Object ids read back from JSON are whatever JSON made of them, so
    ``oid`` is compared both raw and stringified (an ``oid`` of ``7``
    matches a filter of ``"7"``).
    """
    out = []
    for event in events:
        if kind is not None and event.get("kind") != kind:
            continue
        if oid is not None:
            have = event.get("oid")
            if have != oid and str(have) != str(oid):
                continue
        if query is not None and event.get("query") != query:
            continue
        t = event.get("t", 0.0)
        if t_min is not None and t < t_min:
            continue
        if t_max is not None and t > t_max:
            continue
        out.append(event)
    return out


def causal_chain(events: list[dict], seq: int) -> list[dict]:
    """All events causally connected to ``seq``, ordered by sequence.

    Walks ``cause`` links up to the root event, then collects the whole
    causal subtree below that root — e.g. the chain of one probe is its
    triggering update, every reevaluation that update started, the
    probes those issued, and the result changes they produced.  Events
    outside the retained window simply don't appear (ring truncation).
    """
    by_seq = {event["seq"]: event for event in events}
    node = by_seq.get(seq)
    if node is None:
        return []
    # Ascend to the root of this chain.
    root = node
    seen = set()
    while root.get("cause") is not None and root["cause"] in by_seq:
        if root["seq"] in seen:  # defensive: corrupt logs could cycle
            break
        seen.add(root["seq"])
        root = by_seq[root["cause"]]
    # Collect the subtree under the root.
    children: dict[int, list[dict]] = {}
    for event in events:
        cause = event.get("cause")
        if cause is not None:
            children.setdefault(cause, []).append(event)
    chain = []
    stack = [root]
    visited = set()
    while stack:
        current = stack.pop()
        if current["seq"] in visited:
            continue
        visited.add(current["seq"])
        chain.append(current)
        stack.extend(children.get(current["seq"], ()))
    chain.sort(key=lambda event: event["seq"])
    return chain


#: Event kinds surfaced as timeline columns, in display order.
TIMELINE_KINDS = (
    "update", "fastpath", "probe", "reevaluation", "result_change",
    "shrink_push", "safe_region", "cache_invalidation",
)


def timeline(events: list[dict], interval: float = 1.0) -> list[dict]:
    """Aggregate an event stream into per-interval count rows.

    Rows are keyed by the interval start time ``t0`` and carry one
    count column per :data:`TIMELINE_KINDS` entry — the shape ``repro
    monitor`` renders as an aligned table.  Only intervals containing
    at least one event appear.
    """
    if interval <= 0:
        raise ValueError("interval must be positive")
    buckets: dict[int, dict] = {}
    for event in events:
        slot = int(event.get("t", 0.0) / interval)
        row = buckets.get(slot)
        if row is None:
            row = buckets[slot] = {kind: 0 for kind in TIMELINE_KINDS}
        kind = event.get("kind")
        if kind in row:
            row[kind] += 1
    return [
        {"t0": round(slot * interval, 9), **buckets[slot]}
        for slot in sorted(buckets)
    ]

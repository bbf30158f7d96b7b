"""Outside-in instrumentation: a span log plus timing proxies.

Nothing under ``src/`` knows about this file.  The harness swaps the
public objects a simulation exposes (``sim.server``, ``sim.clients``,
``sim.truth``) for the proxies below, which record one span per call
into that layer and delegate everything else untouched.  Spans nest by
call stack, so a probe the server sends back to a client while handling
a report shows up as a ``mobility.position`` span *inside* that report's
``server.update`` span, and self time (span minus child spans) charges
the oracle's work to mobility, not to the server.
"""

from __future__ import annotations

import json
import os
import resource
from time import perf_counter

from oracle import exact_results

#: Span fields, in storage order.
NAME, START, END, PARENT, REPORT = range(5)


class SpanLog:
    """In-memory spans ``[name, start, end, parent, report_id]``.

    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``report_id`` the number of the location report being served, shared
    by every span that report caused (``None`` outside a report).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._report: int | None = None
        self.reports = 0
        self.last_report_seconds = 0.0

    def open(self, name: str) -> None:
        stack = self._stack
        self.spans.append(
            [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._report]
        )
        stack.append(len(self.spans) - 1)

    def close(self) -> float:
        """End the innermost open span; returns its duration."""
        span = self.spans[self._stack.pop()]
        span[END] = perf_counter()
        return span[END] - span[START]

    def call(self, name: str, fn, *args):
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()

    def call_report(self, name: str, fn, *args):
        """``call`` for the span that roots one report's causal chain."""
        self.reports += 1
        self._report = self.reports
        self.open(name)
        try:
            return fn(*args)
        finally:
            self._report = None
            self.last_report_seconds = self.close()

    def totals(self, start: int = 0, stop: int | None = None) -> dict:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        ``start`` / ``stop`` restrict the tally to that slice of the log;
        a slice must hold whole trees (its roots' parents lie outside).
        """
        spans = self.spans[start:stop]
        child_seconds = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= start:
                child_seconds[span[PARENT] - start] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for span, nested in zip(spans, child_seconds):
            row = out.setdefault(
                span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            seconds = span[END] - span[START]
            row["calls"] += 1
            row["total_s"] += seconds
            row["self_s"] += seconds - nested
        return out

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as sink:
            for index, (name, start, end, parent, report) in enumerate(self.spans):
                sink.write(json.dumps({
                    "id": index,
                    "name": name,
                    "start": round(start - origin, 7),
                    "end": round(end - origin, 7),
                    "parent": parent,
                    "report_id": report,
                }))
                sink.write("\n")


def rss_mb() -> tuple[float, float]:
    """``(high-water mark, now)`` of this process's resident memory, MiB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        pages * os.sysconf("SC_PAGE_SIZE") / 2**20,
    )


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


class SpeedProbe:
    """A fixed piece of interpreter work, timed again and again.

    This sandbox's host slows the guest down by up to 1.6x in episodes
    lasting from a second to minutes, invisibly to CPU-time clocks
    (README.md, "Noise").  The probe — a few hundred dictionary
    look-ups, attribute reads, float operations and short-lived
    allocations over a 4 MB table, so that it feels contention for the
    shared cache as the program does — is sampled every ``EVERY`` calls
    into the server, so uniformly over the *work* of a phase.  The mean
    sample over ``REFERENCE_S`` is therefore the phase's mean slowdown,
    and wall seconds divided by it are seconds at reference speed.  At
    full size the table is cold whenever a sample starts, whatever the
    workload (mean sample 345 us beside N = 20k and 346 us beside 100k),
    so the program's own cache behaviour does not move the reference.
    """

    #: One sample on this sandbox when the host is quiet.  Only a scale:
    #: it makes reported seconds read like wall seconds on a quiet host.
    REFERENCE_S = 340e-6
    EVERY = 64
    BURST = 16

    def __init__(self, log: SpanLog | None) -> None:
        self._table = {i: _Cell(i * 0.5, i * 0.25) for i in range(1 << 15)}
        self._key = 12345
        self._calls = 0
        self._log = log
        self.samples: list[float] = []

    def sample(self) -> None:
        if self._log is not None:
            self._log.open("obs.speed_probe")
        start = perf_counter()
        key, table, acc = self._key, self._table, 0.0
        for _ in range(400):
            key = (key * 1103515245 + 12345) & 0x7FFF
            cell = table[key]
            acc += cell.x * 0.5 + cell.y
            _Cell(acc, cell.y)
        self._key = key
        self.samples.append(perf_counter() - start)
        if self._log is not None:
            self._log.close()

    def tick(self) -> None:
        """Count one call into the program; sample on every EVERY-th."""
        self._calls += 1
        if self._calls % self.EVERY == 0:
            self.sample()

    def begin(self) -> tuple[int, float]:
        """Open a timed phase: a burst of samples, then the clock starts."""
        for _ in range(self.BURST):
            self.sample()
        return len(self.samples), perf_counter()

    def end(self, opened: tuple[int, float], excluded: float = 0.0) -> dict:
        """Close a phase: ``seconds`` at reference speed, plus the raw parts.

        ``excluded`` is time inside the phase that is not the system's
        (the accuracy oracle); the probe's own samples are taken out too.
        """
        mark, start = opened
        wall = perf_counter() - start - excluded - sum(self.samples[mark:])
        for _ in range(self.BURST):
            self.sample()
        during = self.samples[mark - self.BURST:]
        slowdown = sum(during) / len(during) / self.REFERENCE_S
        return {"seconds": wall / slowdown, "wall_s": wall,
                "slowdown": slowdown, "probes": len(during)}


class _Proxy:
    """Delegates every attribute it does not define to ``_inner``."""

    __slots__ = ("_inner", "_log")

    def __init__(self, inner, log: SpanLog | None) -> None:
        self._inner = inner
        self._log = log

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedServer(_Proxy):
    """Stands in for ``sim.server`` in every run, traced or not.

    Untraced it clocks each ``handle_location_update[s]`` call (the
    end-to-end report latency is measured here, at the server's public
    entry points) and paces the speed probe; traced it also records spans.  The
    engine's ``close()`` is put off until the harness calls ``shutdown``,
    so that it can ``validate()`` a sharded cluster while its workers
    are still there.
    """

    __slots__ = ("_probe", "latencies")

    def __init__(self, inner, log: SpanLog | None, probe: SpeedProbe) -> None:
        super().__init__(inner, log)
        self._probe = probe
        self.latencies: list[float] = []

    def _clocked(self, method, *args):
        self._probe.tick()
        log = self._log
        if log is None:
            start = perf_counter()
            outcome = method(*args)
            self.latencies.append(perf_counter() - start)
            return outcome
        outcome = log.call_report("server.update", method, *args)
        self.latencies.append(log.last_report_seconds)
        return outcome

    def handle_location_update(self, oid, position, time=0.0):
        return self._clocked(
            self._inner.handle_location_update, oid, position, time
        )

    def handle_location_updates(self, reports, time=0.0):
        return self._clocked(
            self._inner.handle_location_updates, reports, time
        )

    def load_objects(self, objects):
        if self._log is None:
            return self._inner.load_objects(objects)
        return self._log.call(
            "server.load_objects", self._inner.load_objects, objects
        )

    def register_query(self, query, time=0.0):
        self._probe.tick()
        if self._log is None:
            return self._inner.register_query(query, time)
        return self._log.call(
            "server.register_query", self._inner.register_query, query, time
        )

    def safe_region_of(self, oid):
        # Bootstrap asks once per object: paces the probe through set-up.
        self._probe.tick()
        return self._inner.safe_region_of(oid)

    def close(self) -> None:
        pass

    def shutdown(self) -> None:
        """Stop a sharded server's workers (a single server has none)."""
        if hasattr(self._inner, "close"):
            self._inner.close()


class CheckpointTruth(_Proxy):
    """Stands in for ``sim.truth``: the accuracy oracle, kept off the books.

    The engine asks the truth for results once per accuracy checkpoint,
    just before it compares, so the running ``(matches, comparisons)``
    read here splits the run's accuracy into per-checkpoint shares.  The
    oracle is measuring equipment, not the system, so its seconds are
    summed for the harness to take out of ``run_s``, resident memory is
    read on the way in, and the answers come from ``oracle.exact_results``
    (``cross_check`` compares each with the simulation's own truth).
    """

    __slots__ = (
        "_accuracy", "_ids", "_cross_check", "tally", "seconds", "rss",
        "disagreements",
    )

    def __init__(
        self, inner, log: SpanLog | None, accuracy, cross_check: bool
    ) -> None:
        super().__init__(inner, log)
        self._accuracy = accuracy
        self._ids = list(inner.trajectories())
        self._cross_check = cross_check
        self.tally: list[tuple[int, int]] = []
        self.seconds = 0.0
        self.rss: list[tuple[float, float]] = []
        self.disagreements = 0

    def _evaluate(self, t):
        truth = self._inner
        xs, ys = truth.positions_at(t)
        results = exact_results(self._ids, xs, ys, truth.queries, truth.kernels)
        if self._cross_check and results != truth.evaluate_at(t):
            self.disagreements += 1
        return results

    def evaluate_at(self, t):
        self.tally.append((self._accuracy.matches, self._accuracy.comparisons))
        self.rss.append(rss_mb())
        start = perf_counter()
        try:
            if self._log is None:
                return self._evaluate(t)
            return self._log.call("truth.evaluate", self._evaluate, t)
        finally:
            self.seconds += perf_counter() - start

    def checkpoint_accuracies(self) -> list[float]:
        """Share of matching queries at each checkpoint, in order."""
        marks = self.tally + [
            (self._accuracy.matches, self._accuracy.comparisons)
        ]
        return [
            (m1 - m0) / (c1 - c0)
            for (m0, c0), (m1, c1) in zip(marks, marks[1:])
        ]


class TracedClient(_Proxy):
    """Stands in for one ``MobileClient`` (traced runs only)."""

    __slots__ = ()

    def position_at(self, t):
        return self._log.call("mobility.position", self._inner.position_at, t)

    def next_exit_time(self, t, horizon):
        return self._log.call(
            "mobility.exit_time", self._inner.next_exit_time, t, horizon
        )

    def install_safe_region(self, region, t):
        return self._log.call(
            "mobility.install", self._inner.install_safe_region, region, t
        )

"""Span tracing: nested wall-time per pipeline phase.

A :class:`Tracer` hands out ``span(name)`` context managers.  Spans nest:
entering ``span("ingest")`` inside ``span("server.update")`` produces the
dotted path ``server.update.ingest``, and every exit records the span's
wall time into the tracer's registry as a ``span.<path>.seconds``
histogram.  Root spans (depth 0) additionally accumulate into
``Tracer.cpu_seconds`` — the single source the server's CPU accounting is
derived from.

:meth:`Tracer.phase` is the server's one timing seam: it runs one site of
:data:`~repro.obs.profile.PHASES` and feeds one ``perf_counter`` pair to
both the site's span histogram (metrics on) and the attached profiler's
slot (tick open).  With both off it is one attribute test and a direct
call.

The disabled path is engineered to cost what the pre-observability code
paid: with a :class:`~repro.obs.registry.NullRegistry` attached, root
spans still time themselves (two ``perf_counter`` calls, exactly the old
hand-rolled accounting) but child spans are a shared no-op object and
record nothing.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.profile import NULL_PROFILER, PHASES
from repro.obs.registry import NULL_REGISTRY, TIME_BUCKETS, Histogram

#: Site name -> its tick-profile path (``None``: not split out).
_PROFILE_PATH = {name: path for name, (path, _) in PHASES.items()}


class _NoopSpan:
    """Shared no-op for child spans under a disabled registry."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _RootTick:
    """Times a depth-0 span with a disabled registry.

    One instance per tracer; safe because a single-threaded tracer has at
    most one depth-0 span open at a time.
    """

    __slots__ = ("_tracer", "_start")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "_RootTick":
        self._tracer._depth += 1
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer.cpu_seconds += perf_counter() - self._start
        self._tracer._depth -= 1


class _Span:
    """A live span under an enabled registry."""

    __slots__ = ("_tracer", "_name", "_path", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._path = self._tracer._open(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._path, perf_counter() - self._start)


class Tracer:
    """Produces nested spans and aggregates them into a registry.

    ``registry`` is where span timings land (``span.<path>.seconds``
    histograms); the default :data:`~repro.obs.registry.NULL_REGISTRY`
    keeps only root-span wall time (``cpu_seconds``).
    """

    def __init__(self, registry=NULL_REGISTRY):
        self.registry = registry
        self.cpu_seconds = 0.0
        #: The tick profiler :meth:`phase` feeds (see :meth:`attach_profiler`).
        self.profiler = NULL_PROFILER
        #: Whether :meth:`phase` times at all: metrics on or a profiler
        #: attached.  The one attribute the disabled hook tests.
        self.timing = registry.enabled
        self._depth = 0  # open spans under a disabled registry
        self._paths: list[str] = []  # open span paths under an enabled one
        self._span_histograms: dict[str, Histogram] = {}
        self._root_tick = _RootTick(self)

    def attach_profiler(self, profiler) -> None:
        """Feed :meth:`phase` timings to ``profiler`` (``NULL_PROFILER``
        detaches)."""
        self.profiler = profiler
        self.timing = self.registry.enabled or profiler.enabled

    # ------------------------------------------------------------------
    def span(self, name: str):
        """A context manager timing one phase; nests into dotted paths."""
        if not self.registry.enabled:
            if self._depth:
                return _NOOP_SPAN
            return self._root_tick
        return _Span(self, name)

    def phase(self, name: str, fn, *args):
        """Run ``fn(*args)`` as the site ``name`` of ``PHASES``.

        One clock pair feeds the span (nested under the open spans) and,
        inside a profiled tick, the site's profile slot.
        """
        if not self.timing:
            return fn(*args)
        profiler = self.profiler
        slot = _PROFILE_PATH[name] if profiler.tick_open else None
        traced = self.registry.enabled
        if traced:
            path = self._open(name)
        elif slot is None:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = perf_counter() - start
            if traced:
                self._close(path, elapsed)
            if slot is not None:
                profiler.tick_phases[slot] += elapsed

    # ------------------------------------------------------------------
    def _open(self, name: str) -> str:
        paths = self._paths
        path = f"{paths[-1]}.{name}" if paths else name
        paths.append(path)
        return path

    def _close(self, path: str, duration: float) -> None:
        paths = self._paths
        paths.pop()
        if not paths:
            self.cpu_seconds += duration
        histogram = self._span_histograms.get(path)
        if histogram is None:
            histogram = self._span_histograms[path] = self.registry.histogram(
                f"span.{path}.seconds", TIME_BUCKETS
            )
        histogram.observe(duration)

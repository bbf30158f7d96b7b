"""Unit tests for the span tracer (nesting, cpu accounting, no-op path)."""

import pytest

from repro.obs import NULL_REGISTRY, MetricsRegistry, Tracer
from repro.obs.trace import _NOOP_SPAN


def test_nested_spans_build_dotted_paths():
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    with tracer.span("server.update"):
        with tracer.span("ingest"):
            with tracer.span("reevaluate"):
                pass
        with tracer.span("location_manager"):
            pass
    names = set(registry.to_dict()["histograms"])
    assert names == {
        "span.server.update.seconds",
        "span.server.update.ingest.seconds",
        "span.server.update.ingest.reevaluate.seconds",
        "span.server.update.location_manager.seconds",
    }


def test_parent_duration_covers_children():
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    for _ in range(5):
        with tracer.span("parent"):
            with tracer.span("a"):
                sum(range(200))
            with tracer.span("b"):
                sum(range(200))
    histograms = registry.to_dict()["histograms"]
    parent = histograms["span.parent.seconds"]
    child_sum = (
        histograms["span.parent.a.seconds"]["sum"]
        + histograms["span.parent.b.seconds"]["sum"]
    )
    assert parent["count"] == 5
    assert parent["sum"] >= child_sum


def test_cpu_seconds_accumulates_root_spans_only():
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    with tracer.span("root"):
        before_child = tracer.cpu_seconds
        with tracer.span("child"):
            pass
        # The child's exit must not feed cpu_seconds directly.
        assert tracer.cpu_seconds == before_child
    assert tracer.cpu_seconds > 0.0
    root = registry.to_dict()["histograms"]["span.root.seconds"]
    assert tracer.cpu_seconds == pytest.approx(root["sum"])


def test_disabled_tracer_times_roots_but_not_children():
    tracer = Tracer(NULL_REGISTRY)
    child_spans = []
    with tracer.span("root"):
        child_spans.append(tracer.span("child"))
        with child_spans[-1]:
            pass
    assert tracer.cpu_seconds > 0.0
    # Child spans under a disabled registry are the shared no-op object.
    assert child_spans[0] is _NOOP_SPAN
    assert NULL_REGISTRY.to_dict()["histograms"] == {}


def test_default_tracer_is_disabled():
    tracer = Tracer()
    assert tracer.registry is NULL_REGISTRY
    assert tracer.timing is False
    with tracer.span("anything"):
        # The timing seam is a direct call: no span, no profile slot.
        assert tracer.phase("ingest", sum, (1, 2)) == 3
    assert NULL_REGISTRY.to_dict()["histograms"] == {}


def test_exception_still_closes_span():
    registry = MetricsRegistry()
    tracer = Tracer(registry)
    with pytest.raises(RuntimeError):
        with tracer.span("root"):
            with tracer.span("boom"):
                raise RuntimeError("x")
    # Both spans were closed and recorded despite the exception.
    histograms = registry.to_dict()["histograms"]
    assert histograms["span.root.seconds"]["count"] == 1
    assert histograms["span.root.boom.seconds"]["count"] == 1
    # The stack unwound fully: a new span is a root again.
    with tracer.span("after"):
        pass
    assert "span.after.seconds" in registry.to_dict()["histograms"]

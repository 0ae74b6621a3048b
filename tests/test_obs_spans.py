"""Tests for span tracing and its TraceRecorder/metrics integration."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.sim.core import Simulator
from repro.sim.trace import TraceRecorder


@pytest.fixture
def tracer(sim):
    return SpanTracer(sim, TraceRecorder(), MetricsRegistry())


class TestSpanLifecycle:
    def test_duration_is_simulated_time(self, sim, tracer):
        def op():
            with tracer.span("rdx.op") as span:
                yield sim.timeout(25)
            return span

        span = sim.run_process(op())
        assert span.finished
        assert span.duration_us == 25

    def test_unfinished_span_has_no_duration(self, sim, tracer):
        span = tracer.start("rdx.op")
        with pytest.raises(ValueError):
            _ = span.duration_us

    def test_double_finish_rejected(self, sim, tracer):
        span = tracer.start("rdx.op")
        span.finish()
        with pytest.raises(ValueError):
            span.finish()

    def test_exception_marks_span_error(self, sim, tracer):
        def op():
            with tracer.span("rdx.op"):
                yield sim.timeout(1)
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            sim.run_process(op())
        (span,) = tracer.finished_spans
        assert span.status == "error"
        assert "boom" in span.attrs["error"]

    def test_finish_attrs_merge(self, sim, tracer):
        span = tracer.start("rdx.op", a=1)
        span.finish(b=2)
        assert span.attrs == {"a": 1, "b": 2}


class TestHierarchy:
    def test_parent_child_links(self, sim, tracer):
        parent = tracer.start("rdx.broadcast")

        def leg(i):
            with tracer.span("rdx.broadcast.target", parent=parent, target=i):
                yield sim.timeout(i + 1)

        for i in range(3):
            sim.spawn(leg(i))
        sim.run()
        parent.finish()
        children = tracer.children_of(parent)
        assert len(children) == 3
        assert {c.attrs["target"] for c in children} == {0, 1, 2}
        assert all(c.parent_id == parent.span_id for c in children)

    def test_wrap_runs_generator_inside_span(self, sim, tracer):
        def work():
            yield sim.timeout(10)
            return "done"

        result = sim.run_process(tracer.wrap(work(), "rdx.work", kind="test"))
        assert result == "done"
        (span,) = tracer.by_name("rdx.work")
        assert span.duration_us == 10
        assert span.attrs["kind"] == "test"


class TestBackwardCompat:
    def test_span_events_land_in_trace_recorder(self, sim, tracer):
        span = tracer.start("rdx.deploy", program="p")
        sim.run_process(iter_timeout(sim, 40))
        span.finish()
        categories = [e.category for e in tracer.recorder.events]
        assert categories == ["rdx.deploy.start", "rdx.deploy.end"]
        # The existing durations() helper pairs span start/end events.
        assert tracer.recorder.durations(
            "rdx.deploy.start", "rdx.deploy.end", "span_id"
        ) == [40.0]

    def test_latency_histogram_fed_automatically(self, sim, tracer):
        span = tracer.start("rdx.deploy")
        sim.run_process(iter_timeout(sim, 15))
        span.finish()
        hist = tracer.registry.get("rdx.deploy.latency_us")
        assert hist.count == 1
        assert hist.sum == 15.0

    def test_recorder_and_registry_optional(self, sim):
        bare = SpanTracer(sim)
        span = bare.start("x")
        span.finish()
        assert list(bare.finished_spans) == [span]


class TestBounds:
    def test_finished_spans_bounded(self, sim):
        tracer = SpanTracer(sim, keep_finished=10)
        for i in range(25):
            tracer.start("s", i=i).finish()
        assert len(tracer.finished_spans) == 10
        assert tracer.evicted == 15
        assert tracer.started == 25
        # Oldest evicted first.
        assert tracer.finished_spans[0].attrs["i"] == 15

    def test_a_full_ring_keeps_the_newest_in_order(self, sim):
        tracer = SpanTracer(sim)  # the default bound: 10,000
        for i in range(20_000):
            tracer.start("s", i=i).finish()
        assert [span.attrs["i"] for span in tracer.finished_spans] == list(
            range(10_000, 20_000)
        )
        assert tracer.evicted == 10_000
        first = tracer.finished_spans[0]
        assert tracer.by_name("s")[0] is first
        assert tracer.by_trace(first.trace_id) == [first]
        assert tracer.children_of(first) == []


def iter_timeout(sim, delay):
    yield sim.timeout(delay)

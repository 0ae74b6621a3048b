"""Span-based tracing for the CodeFlow op pipeline.

A :class:`Span` is one timed operation (``rdx.validate``,
``rdx.deploy``, ...) with free-form attributes and an optional parent,
so a ``rdx_broadcast`` fan-out renders as one parent span with a child
span per target.

The tracer is **built on** :class:`repro.sim.trace.TraceRecorder`
rather than replacing it: opening a span records a ``<name>.start``
event and closing it records ``<name>.end`` (both carrying
``span_id``/``parent_id``), so every existing recorder tool --
``filter``, ``durations``, experiment post-processing -- keeps working
on span data unchanged.  On top of that, each finished span feeds the
metrics registry: a span named ``rdx.deploy`` observes the
``rdx.deploy.latency_us`` histogram automatically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.core import Simulator
    from repro.sim.trace import TraceRecorder

#: Span names that root a causal deploy trace.
TRACE_ROOTS = ("rdx.inject", "rdx.broadcast")


@dataclass
class Span:
    """One timed operation; close with ``finish()`` or a ``with`` block."""

    name: str
    span_id: int
    start_us: float
    parent_id: Optional[int] = None
    #: The causal trace this span belongs to: minted when a root span
    #: opens, inherited by every descendant, and carried through WR
    #: chains / CAS / flush trace events so one deploy reconstructs as
    #: one end-to-end tree (see :func:`reconstruct_deploy_traces`).
    trace_id: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    end_us: Optional[float] = None
    status: str = "ok"
    _tracer: Optional["SpanTracer"] = field(default=None, repr=False)

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.end_us - self.start_us

    def finish(self, **attrs: Any) -> "Span":
        assert self._tracer is not None
        self._tracer.finish(self, **attrs)
        return self

    # -- context-manager sugar (works inside sim generators: the body
    # between __enter__ and __exit__ may span many yields, and the
    # duration is whatever simulated time elapsed in between) --------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if not self.finished:
            if exc is not None:
                self.status = "error"
                self.finish(error=str(exc))
            else:
                self.finish()


class SpanTracer:
    """Creates spans against one simulator clock.

    ``recorder`` receives the start/end trace events (backward-compat
    surface); ``registry`` receives the per-span-name latency
    histograms.  Either may be None to opt out.
    """

    def __init__(
        self,
        sim: "Simulator",
        recorder: Optional["TraceRecorder"] = None,
        registry: Optional["MetricsRegistry"] = None,
        keep_finished: int = 10_000,
    ):
        self.sim = sim
        self._span_ids = sim.ids.span
        self._trace_ids = sim.ids.trace
        self.recorder = recorder
        self.registry = registry
        #: Finished spans, oldest first: a ring of the newest
        #: ``keep_finished``, so a finish costs O(1) once it is full.
        self.finished_spans: deque[Span] = deque(maxlen=keep_finished)
        self.keep_finished = keep_finished
        #: Spans evicted from ``finished_spans`` by the bound.
        self.evicted = 0
        self.started = 0
        #: In-flight spans by span_id -- what the control plane "was
        #: doing"; the flight recorder snapshots these on crash.
        self.open_spans: dict[int, Span] = {}
        #: Listeners called with each finished span (flight recorder).
        self.on_finish: list = []

    def start(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        span = Span(
            name=name,
            span_id=next(self._span_ids),
            start_us=self.sim.now,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=(
                parent.trace_id if parent is not None
                else next(self._trace_ids)
            ),
            attrs=dict(attrs),
            _tracer=self,
        )
        self.started += 1
        self.open_spans[span.span_id] = span
        if self.recorder is not None:
            self.recorder.record(
                self.sim.now,
                f"{name}.start",
                span_id=span.span_id,
                parent_id=span.parent_id,
                trace_id=span.trace_id,
                **attrs,
            )
        return span

    #: ``span`` is the idiomatic entry point: ``with tracer.span(...)``.
    span = start

    def finish(self, span: Span, **attrs: Any) -> Span:
        if span.finished:
            raise ValueError(f"span {span.name!r} already finished")
        span.attrs.update(attrs)
        span.end_us = self.sim.now
        self.open_spans.pop(span.span_id, None)
        if self.recorder is not None:
            self.recorder.record(
                self.sim.now,
                f"{span.name}.end",
                span_id=span.span_id,
                parent_id=span.parent_id,
                trace_id=span.trace_id,
                duration_us=span.duration_us,
                status=span.status,
                **attrs,
            )
        if self.registry is not None:
            self.registry.histogram(f"{span.name}.latency_us").observe(
                span.duration_us
            )
        for listener in self.on_finish:
            listener(span)
        if len(self.finished_spans) == self.keep_finished:
            self.evicted += 1  # the append pushes the oldest out
        self.finished_spans.append(span)
        return span

    def wrap(self, generator, name: str, parent: Optional[Span] = None, **attrs):
        """Run a sim process generator inside a span of its own.

        Usable anywhere a generator is expected (``sim.spawn``,
        ``yield from``); the span closes when the wrapped process
        returns or raises.
        """
        span = self.start(name, parent=parent, **attrs)
        with span:
            result = yield from generator
        return result

    # -- hierarchy queries -------------------------------------------------

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.finished_spans if s.parent_id == span.span_id]

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.finished_spans if s.name == name]

    def by_trace(self, trace_id: int) -> list[Span]:
        return [s for s in self.finished_spans if s.trace_id == trace_id]


# -- causal deploy-trace reconstruction ------------------------------------


@dataclass
class TargetTrace:
    """One target's leg of a deploy trace.

    ``install_visible_us`` is the *true* per-target install latency:
    from the root op starting until this target's commit (CAS +
    coherence flush) retired -- the point after which a data-path read
    can observe the new pointer.  ``first_exec_us`` closes the loop
    further: when the sandbox actually ran the installed image (joined
    from the segment-mirrored ``rdx.trace.first_exec`` event on the
    image's code address), relative to the same root start.
    """

    target: str
    span: Span
    install_visible_us: float
    first_exec_us: Optional[float] = None


@dataclass
class DeployTrace:
    """One reconstructed end-to-end deploy: a root span + target legs."""

    trace_id: int
    root: Span
    tenant: str = ""
    targets: list[TargetTrace] = field(default_factory=list)
    bubble_window_us: Optional[float] = None
    #: Low-level causal events (WR chains, chunk lands, CAS, flush)
    #: recorded under this trace id, oldest first.
    events: list = field(default_factory=list)

    @property
    def total_us(self) -> float:
        return self.root.duration_us

    def target_named(self, target: str) -> Optional[TargetTrace]:
        for leg in self.targets:
            if leg.target == target:
                return leg
        return None


def _first_exec_index(recorder) -> dict[tuple[str, int], float]:
    """(target, code_addr) -> earliest first-exec time, from the recorder."""
    index: dict[tuple[str, int], float] = {}
    if recorder is None:
        return index
    for event in recorder.filter("rdx.trace.first_exec"):
        key = (event.data.get("target"), event.data.get("pointer"))
        if key not in index:
            index[key] = event.time_us
    return index


def reconstruct_deploy_traces(
    tracer: SpanTracer, recorder: Optional["TraceRecorder"] = None
) -> list[DeployTrace]:
    """Rebuild one :class:`DeployTrace` per deploy/broadcast root span.

    Works purely from finished spans plus (optionally) the trace
    recorder: the recorder contributes the low-level causal events the
    sync layer tagged with the trace id and the sandbox-side
    first-exec edges.
    """
    recorder = recorder if recorder is not None else tracer.recorder
    first_execs = _first_exec_index(recorder)
    events_by_trace: dict[int, list] = {}
    if recorder is not None:
        for event in recorder.filter("rdx.trace."):
            trace_id = event.data.get("trace_id")
            if trace_id is not None:
                events_by_trace.setdefault(trace_id, []).append(event)

    traces: list[DeployTrace] = []
    for root in tracer.finished_spans:
        if root.name not in TRACE_ROOTS or root.parent_id is not None:
            continue
        assert root.trace_id is not None
        trace = DeployTrace(
            trace_id=root.trace_id,
            root=root,
            tenant=str(root.attrs.get("tenant", "")),
            bubble_window_us=root.attrs.get("bubble_window_us"),
            events=events_by_trace.get(root.trace_id, []),
        )
        for span in tracer.by_trace(root.trace_id):
            if span.name == "rdx.broadcast.target" or (
                span.name == "rdx.deploy" and root.name == "rdx.inject"
            ):
                target = str(span.attrs.get("target", ""))
                leg = TargetTrace(
                    target=target,
                    span=span,
                    install_visible_us=span.end_us - root.start_us,
                )
                code_addr = _leg_code_addr(tracer, span)
                if code_addr is not None:
                    when = first_execs.get((target, code_addr))
                    if when is not None and when >= root.start_us:
                        leg.first_exec_us = when - root.start_us
                trace.targets.append(leg)
        traces.append(trace)
    return traces


def _leg_code_addr(tracer: SpanTracer, leg: Span) -> Optional[int]:
    """The deployed image's code address for a target leg span.

    ``rdx.deploy`` spans carry it directly; ``rdx.broadcast.target``
    legs find it on their descendant deploy span.
    """
    addr = leg.attrs.get("code_addr")
    if addr is not None:
        return addr
    frontier = [leg]
    while frontier:
        node = frontier.pop()
        for child in tracer.children_of(node):
            addr = child.attrs.get("code_addr")
            if addr is not None:
                return addr
            frontier.append(child)
    return None

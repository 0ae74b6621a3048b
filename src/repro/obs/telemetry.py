"""The per-simulation telemetry hub.

One :class:`Telemetry` bundles the three observability surfaces --
metrics registry, span tracer, and the trace recorder the tracer
writes through -- so instrumented components need a single handle.

Components do not construct it directly; they call
:func:`telemetry_of`, which lazily attaches one hub per
:class:`~repro.sim.core.Simulator`.  That gives every experiment and
test an isolated, deterministic telemetry scope for free (a fresh sim
means fresh metrics), with no global mutable state to reset between
runs.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from repro import params
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import Span, SpanTracer
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator

#: Attribute name used to cache the hub on the simulator instance.
_SIM_ATTR = "_rdx_telemetry"

#: Aggregate label value used when no shard owns the target (a plain
#: unsharded control plane).
UNSHARDED = "_all"


class Telemetry:
    """Metrics + spans + trace recorder for one simulation."""

    def __init__(
        self,
        sim: "Simulator",
        recorder: Optional[TraceRecorder] = None,
    ):
        self.sim = sim
        #: Whether ``target=`` / ``tenant=`` labels keep their full
        #: breakdown (``config.obs_target_labels``) or aggregate.
        self.per_target_labels = params.config_of(sim).obs_target_labels
        self.registry = MetricsRegistry()
        #: Span events land here; bounded so background workloads
        #: cannot grow it without limit (drop-oldest, counted).
        # Explicit None check: an empty TraceRecorder is falsy (len 0).
        if recorder is None:
            recorder = TraceRecorder(max_events=100_000)
        self.recorder = recorder
        self.tracer = SpanTracer(sim, self.recorder, self.registry)
        #: Crash flight recorder: a bounded ring of recent spans +
        #: metric deltas the control plane journals on crash.
        self.flight = FlightRecorder(sim)
        self.tracer.on_finish.append(self.flight.record_span)
        # Ring-buffer drops become a first-class counter the moment
        # they happen, and latch the hub as truncated forever after
        # (never-report-clean, mirroring the HB checker).
        self._ever_dropped = False
        self.recorder.on_drop = self._note_drop

    def _note_drop(self, count: int) -> None:
        self._ever_dropped = True
        self.registry.counter("rdx.obs.trace_dropped").inc(count)

    @property
    def truncated(self) -> bool:
        """True once any bounded ring has dropped history."""
        return (
            self._ever_dropped
            or self.recorder.dropped > 0
            or self.flight.dropped > 0
        )

    def sync_health_metrics(self) -> None:
        """Refresh the hub's self-describing gauges before an export."""
        self.registry.gauge("rdx.obs.truncated").set(
            1.0 if self.truncated else 0.0
        )
        self.registry.gauge("rdx.obs.spans_open").set(
            len(self.tracer.open_spans)
        )

    # -- label cardinality -------------------------------------------------

    def target_label(self, target: str, shard: str = "") -> str:
        """The ``target=`` label value to emit for ``target``.

        Every deploy leg, heartbeat and fence trip carries one.  At 8
        targets that is a readable breakdown; at N=1024 it is thousands
        of live series per metric name, and the registry, the exporters
        and every scrape pay for it.  So, as in production metric
        pipelines, the value is the target itself only when the
        simulation's config opts in; otherwise the owning ``shard`` (or
        :data:`UNSHARDED`), collapsing O(targets) series to O(shards).
        """
        if self.per_target_labels:
            return target
        return shard or UNSHARDED

    #: The ``tenant=`` label is the same trap (a 1000-tenant serving mix
    #: would mint 1000 series per metric name) with the same way out:
    #: ``tenant_label(tenant, tenant_class)`` collapses to the tenant's
    #: *priority class*, a handful of values by construction.
    tenant_label = target_label

    # -- metric passthroughs ----------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self.registry.histogram(name, **labels)

    # -- span passthroughs -------------------------------------------------

    def span(self, name: str, parent: Optional[Span] = None, **attrs: Any) -> Span:
        return self.tracer.span(name, parent=parent, **attrs)

    def wrap(self, generator, name: str, parent: Optional[Span] = None, **attrs):
        return self.tracer.wrap(generator, name, parent=parent, **attrs)

    def snapshot(self) -> list[dict]:
        return self.registry.snapshot()


def export_prometheus(hub: Telemetry) -> str:
    """Prometheus text for the hub, with health gauges refreshed.

    A snapshot taken after any ring drop carries
    ``rdx_obs_truncated 1`` -- there is no way back to a clean export
    on this hub.
    """
    from repro.obs.exporters import to_prometheus

    hub.sync_health_metrics()
    return to_prometheus(hub.registry)


def export_jsonl(hub: Telemetry) -> str:
    """JSON-lines for the hub, with health gauges refreshed."""
    from repro.obs.exporters import to_jsonl

    hub.sync_health_metrics()
    return to_jsonl(hub.registry)


def telemetry_of(sim: "Simulator") -> Telemetry:
    """The simulator's telemetry hub, created on first use."""
    hub = getattr(sim, _SIM_ATTR, None)
    if hub is None:
        hub = Telemetry(sim)
        setattr(sim, _SIM_ATTR, hub)
    return hub

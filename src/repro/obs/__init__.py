"""Observability: the agentless telemetry plane.

The telemetry substrate the control plane, RNICs, and auditor report
into.  One :class:`Telemetry` hub exists per simulator (see
:func:`telemetry_of`); exporters render its registry as JSON-lines or
Prometheus text.  ``python -m repro.cli telemetry`` runs a
representative workload and prints the resulting snapshot.

v2 adds the RDX-native pieces (DESIGN.md §14):

* :mod:`repro.obs.segment` -- the sandbox-resident, seqlock-guarded
  telemetry segment inside the registered MR span;
* :mod:`repro.obs.scrape` -- one-sided scraping of those segments
  (zero sandbox-CPU events, torn snapshots retried and never exported);
* causal deploy traces (:func:`reconstruct_deploy_traces`) joining
  control-plane spans with sandbox-side first-exec edges;
* :mod:`repro.obs.flight` -- the crash flight recorder replayed by
  ``python -m repro.cli blackbox``.
"""

from repro.obs.exporters import (
    escape_label_value,
    from_jsonl,
    parse_prometheus,
    prom_name,
    to_jsonl,
    to_prometheus,
)
from repro.obs.flight import FlightRecorder, format_blackbox
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.segment import (
    LAYOUT,
    SegmentLayout,
    SegmentSnapshot,
    TelemetrySegment,
    decode_segment,
)
from repro.obs.scrape import ScrapeResult, TelemetryScraper, TornSnapshotError
from repro.obs.spans import (
    DeployTrace,
    Span,
    SpanTracer,
    TargetTrace,
    reconstruct_deploy_traces,
)
from repro.obs.telemetry import (
    UNSHARDED,
    Telemetry,
    export_jsonl,
    export_prometheus,
    telemetry_of,
)

__all__ = [
    "Counter",
    "DeployTrace",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LAYOUT",
    "MetricsRegistry",
    "ScrapeResult",
    "SegmentLayout",
    "SegmentSnapshot",
    "Span",
    "SpanTracer",
    "TargetTrace",
    "Telemetry",
    "TelemetryScraper",
    "TelemetrySegment",
    "TornSnapshotError",
    "UNSHARDED",
    "decode_segment",
    "escape_label_value",
    "export_jsonl",
    "export_prometheus",
    "format_blackbox",
    "from_jsonl",
    "parse_prometheus",
    "prom_name",
    "reconstruct_deploy_traces",
    "telemetry_of",
    "to_jsonl",
    "to_prometheus",
]

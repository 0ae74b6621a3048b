"""The crash flight recorder: what was the control plane doing?

A bounded ring of recent activity -- finished spans and metric deltas
-- plus the set of spans still *open* at snapshot time.  On
``RdxControlPlane.crash()`` the ring is serialized into the intent
journal as a ``FLIGHT`` record, which survives into the recovered
incarnation the same way in-flight intents do.  ``python -m repro.cli
blackbox`` replays it so a post-``warm_reboot`` post-mortem explains
the final seconds of the dead incarnation instead of guessing from
counters.

Entries are plain JSON-able dicts (the journal round-trips through
JSONL); span attributes are stringified defensively.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span


def _jsonable(value):
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


class FlightRecorder:
    """Bounded ring of recent spans and metric deltas."""

    def __init__(self, sim, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.entries: deque[dict] = deque(maxlen=capacity)
        #: Entries evicted by the ring bound (drop-oldest).
        self.dropped = 0

    def _push(self, entry: dict) -> None:
        if len(self.entries) == self.capacity:
            self.dropped += 1
        self.entries.append(entry)

    # -- feeds -------------------------------------------------------------

    def record_span(self, span: Span) -> None:
        """Feed one finished span (wired to ``SpanTracer.on_finish``)."""
        self._push(
            {
                "kind": "span",
                "t": span.end_us,
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
                "start_us": span.start_us,
                "duration_us": span.duration_us,
                "status": span.status,
                "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )

    def note_metrics(self, registry: MetricsRegistry,
                     prefix: str = "rdx.") -> int:
        """Checkpoint counters and ring the deltas since last time.

        Called at op boundaries (each journal COMMIT/ABORT); keeps the
        ring carrying "what moved lately" without hooking every
        ``inc()`` on the hot path, at the cost of the counters that
        moved.  Every mover is checkpointed, those under ``prefix`` are
        rung.  Returns the number of delta entries recorded.
        """
        recorded = 0
        now = self.sim.now
        for metric in registry.take_moved():
            delta = metric.value - metric.checkpointed
            metric.checkpointed = metric.value
            if delta and metric.name.startswith(prefix):
                self._push(
                    {
                        "kind": "metric",
                        "t": now,
                        "name": metric.name,
                        "labels": dict(metric.labels),
                        "delta": delta,
                        "total": metric.value,
                    }
                )
                recorded += 1
        return recorded

    # -- the crash snapshot ------------------------------------------------

    def snapshot(self, open_spans: Optional[dict] = None) -> dict:
        """Serialize the ring + in-flight spans for the journal.

        The detail dict deliberately nests everything under non-target
        keys so the journal's recovery scanners (``known_targets``,
        ``in_flight``) never mistake a flight record for an intent.
        """
        open_list = []
        for span in (open_spans or {}).values():
            open_list.append(
                {
                    "name": span.name,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "trace_id": span.trace_id,
                    "start_us": span.start_us,
                    "open_for_us": self.sim.now - span.start_us,
                    "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
        open_list.sort(key=lambda s: s["start_us"])
        return {
            "at_us": self.sim.now,
            "ring": list(self.entries),
            "ring_dropped": self.dropped,
            "truncated": self.dropped > 0,
            "open_spans": open_list,
        }


# -- blackbox replay -------------------------------------------------------


def format_blackbox(flight_details: list[dict], epoch: int = 0) -> str:
    """Render journal FLIGHT records as a post-mortem report."""
    if not flight_details:
        return "blackbox: no flight records in journal (clean shutdown?)"
    lines: list[str] = []
    for index, detail in enumerate(flight_details):
        at = detail.get("at_us", 0.0)
        header = f"flight record {index + 1}/{len(flight_details)}"
        if epoch:
            header += f" (journal epoch {epoch})"
        lines.append(header)
        lines.append(f"  snapshotted at t={at:.1f}us")
        if detail.get("truncated"):
            lines.append(
                f"  TRUNCATED: ring dropped {detail.get('ring_dropped', 0)} "
                "older entries"
            )
        open_spans = detail.get("open_spans", [])
        lines.append(f"  in flight at death ({len(open_spans)} spans):")
        for span in open_spans:
            attrs = span.get("attrs", {})
            what = " ".join(
                f"{k}={v}" for k, v in sorted(attrs.items())
            )
            lines.append(
                f"    OPEN {span['name']}"
                f" trace={span.get('trace_id')}"
                f" started t={span['start_us']:.1f}us"
                f" open {span['open_for_us']:.1f}us"
                + (f"  {what}" if what else "")
            )
        ring = detail.get("ring", [])
        lines.append(f"  recent activity ({len(ring)} entries, oldest first):")
        for entry in ring:
            if entry.get("kind") == "span":
                attrs = entry.get("attrs", {})
                what = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                lines.append(
                    f"    t={entry['t']:.1f}us span {entry['name']}"
                    f" [{entry.get('status', '?')}]"
                    f" {entry.get('duration_us', 0.0):.1f}us"
                    f" trace={entry.get('trace_id')}"
                    + (f"  {what}" if what else "")
                )
            else:
                labels = entry.get("labels", {})
                tag = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                lines.append(
                    f"    t={entry['t']:.1f}us metric {entry['name']}"
                    + (f"{{{tag}}}" if tag else "")
                    + f" +{entry.get('delta', 0):g}"
                    + f" (total {entry.get('total', 0):g})"
                )
    return "\n".join(lines)

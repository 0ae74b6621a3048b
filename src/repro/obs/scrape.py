"""One-sided scraping of sandbox telemetry segments.

The scraper is the read side of :mod:`repro.obs.segment`: it pulls a
sandbox's counters with RDMA READs only -- zero sandbox-CPU events --
and defends against The Completion Fallacy with the segment's seqlock:

1. READ the sequence word; odd means a local write is in flight.
2. READ the slot payload.
3. READ the sequence word again; accept iff unchanged and even.

A mismatch is a *torn* snapshot: retried up to
``params.RDX_SCRAPE_MAX_RETRIES`` times with a small backoff, counted,
and -- crucially -- **never exported**.  :func:`read_segment` is that
accept loop, for any layout over any one-sided read.  An accepted
snapshot is single-epoch by construction (the incarnation word lives
inside the bracket), so a post-``warm_reboot`` scrape can't blend
pre-crash totals into the new incarnation's series.

Accepted snapshots feed the control plane's metrics registry as
``sandbox.*`` series labeled with ``target`` and ``epoch``; counter
slots are published as deltas against the previous accepted snapshot
so registry counters stay monotonic per incarnation.  On an epoch bump
the target's old-epoch series are dropped from the registry.

Scheduling piggybacks on :class:`repro.core.health.HealthDetector`:
every successful lease probe is followed by a scrape of the same
target over the already-warm QP, so telemetry freshness rides the
failure-detection interval without its own timer wheel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro import params
from repro.errors import ReproError
from repro.obs.segment import (
    LAYOUT,
    COUNTER_SLOTS,
    GAUGE_SLOTS,
    HIST_BUCKETS,
    HIST_SLOTS,
    OFF_SEQ,
    SegmentLayout,
    SegmentSnapshot,
    decode_segment,
)
from repro.obs.telemetry import telemetry_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.codeflow import CodeFlow


class TornSnapshotError(ReproError):
    """Seqlock retries exhausted: the segment never held still."""


def read_segment(
    read: Callable[[int, int], Generator],
    base_addr: int,
    layout: SegmentLayout,
    size: int = 0,
    max_retries: Optional[int] = None,
    sim=None,
    on_torn: Callable[[], None] = lambda: None,
    what: str = "segment",
) -> Generator:
    """Process body: one seqlock-consistent read of a segment.

    ``read(addr, size)`` is any one-sided read generator -- a
    :meth:`RemoteSync.read <repro.core.sync.RemoteSync.read>` bound to
    the segment's region, or a monitor-side RDMA shim.  The accept
    rule is the standard one: seq even before, payload, seq unchanged
    after; anything else (odd seq, moved seq, bad magic) is torn,
    retried, and **never returned**.  When ``sim`` is given, retries
    back off :data:`~repro.params.RDX_SCRAPE_RETRY_US` apiece, so a
    scraper can ride out a slow writer bracket instead of burning the
    whole budget inside it.  Returns ``(snapshot, retries)``; raises
    :class:`TornSnapshotError` when the budget runs out.
    """
    if max_retries is None:
        max_retries = params.RDX_SCRAPE_MAX_RETRIES
    for retries in range(max_retries + 1):
        word = yield from read(base_addr + OFF_SEQ, 8)
        seq_before = int.from_bytes(bytes(word), "little")
        if seq_before % 2 == 0:
            raw = bytes((yield from read(base_addr, size or layout.size_bytes)))
            word = yield from read(base_addr + OFF_SEQ, 8)
            if int.from_bytes(bytes(word), "little") == seq_before:
                snapshot: SegmentSnapshot = decode_segment(raw, layout)
                if snapshot.valid:
                    return snapshot, retries
        on_torn()
        if sim is not None:
            yield sim.timeout(params.RDX_SCRAPE_RETRY_US)
    raise TornSnapshotError(
        f"scrape of {what} torn {max_retries + 1}x; snapshot discarded"
    )


@dataclass
class ScrapeResult:
    """One accepted (seqlock-consistent) scrape of one target."""

    target: str
    epoch: int
    snapshot: SegmentSnapshot
    retries: int = 0
    scraped_at_us: float = 0.0
    #: Counter deltas vs the previous accepted scrape (same epoch).
    deltas: dict[str, int] = field(default_factory=dict)


class TelemetryScraper:
    """Scrapes registered sandboxes into the control plane's registry."""

    def __init__(
        self,
        codeflows,
        layout: SegmentLayout = LAYOUT,
        max_retries: Optional[int] = None,
    ):
        codeflows = list(codeflows)
        if not codeflows:
            raise ValueError("scraper needs at least one codeflow")
        self.codeflows: dict[str, "CodeFlow"] = {
            cf.sandbox.name: cf for cf in codeflows
        }
        self.layout = layout
        self.max_retries = max_retries
        self.sim = codeflows[0].sync.sim
        self.obs = telemetry_of(self.sim)
        #: target -> (epoch, raw counter values) of the last accepted
        #: scrape; the delta baseline.
        self._baseline: dict[str, tuple[int, dict[str, int]]] = {}
        self.results: list[ScrapeResult] = []
        self._m_count = self.obs.counter("rdx.scrape.count")
        self._m_retries = self.obs.counter("rdx.scrape.retries")
        self._m_torn = self.obs.counter("rdx.scrape.torn")

    # -- the seqlock read protocol ----------------------------------------

    def scrape(self, target: str):
        """Process body: scrape one target; returns a ScrapeResult.

        Raises :class:`TornSnapshotError` when the bounded retry budget
        runs out -- the caller gets *nothing* rather than a torn
        snapshot (never-export-torn).  Transport errors propagate as
        usual (the health detector owns liveness policy).
        """
        codeflow = self.codeflows[target]
        manifest = codeflow.manifest
        try:
            snapshot, retries = yield from read_segment(
                codeflow.sync.read, manifest.telemetry_addr, self.layout,
                size=manifest.telemetry_bytes,
                max_retries=self.max_retries, sim=self.sim,
                on_torn=self._m_retries.inc, what=repr(target),
            )
        except TornSnapshotError:
            self._m_torn.inc()
            raise
        result = ScrapeResult(
            target=target,
            epoch=snapshot.epoch,
            snapshot=snapshot,
            retries=retries,
            scraped_at_us=self.sim.now,
        )
        self._publish(result)
        self._m_count.inc()
        self.results.append(result)
        return result

    def scrape_all(self):
        """Process body: scrape every registered target, in name order.

        Torn targets are skipped (already counted); the return value
        maps target -> ScrapeResult for the targets that were accepted.
        """
        accepted: dict[str, ScrapeResult] = {}
        for target in sorted(self.codeflows):
            try:
                accepted[target] = yield from self.scrape(target)
            except ReproError:
                continue
        return accepted

    # -- registry publication ---------------------------------------------

    def _publish(self, result: ScrapeResult) -> None:
        registry = self.obs.registry
        target = result.target
        epoch = result.epoch
        values = result.snapshot.values
        previous = self._baseline.get(target)
        if previous is not None and previous[0] != epoch:
            # New incarnation: retire every series of the old one so
            # pre-crash counters can't leak into recovered snapshots.
            registry.drop(target=target)
            previous = None
        baseline = previous[1] if previous is not None else {}
        labels = {"target": target, "epoch": str(epoch)}

        new_baseline: dict[str, int] = {}
        for name in COUNTER_SLOTS:
            total = int(values[name])
            new_baseline[name] = total
            delta = total - baseline.get(name, 0)
            if delta < 0:
                # Counters only move backward on a same-epoch reset,
                # which the seqlock + epoch word rule out; be safe.
                delta = total
            result.deltas[name] = delta
            if delta:
                registry.counter(f"sandbox.{name}", **labels).inc(delta)
            else:
                registry.counter(f"sandbox.{name}", **labels)
        for name in GAUGE_SLOTS:
            registry.gauge(f"sandbox.{name}", **labels).set(values[name])
        for name in HIST_SLOTS:
            hist = result.snapshot.histogram(name)
            for bucket in range(HIST_BUCKETS):
                key = f"{name}.bucket{bucket}"
                total = int(values[key])
                new_baseline[key] = total
                delta = total - baseline.get(key, 0)
                if delta < 0:
                    delta = total
                if delta:
                    registry.counter(
                        f"sandbox.{name}_bucket", le=str(2 ** bucket), **labels
                    ).inc(delta)
            registry.gauge(f"sandbox.{name}_count", **labels).set(
                hist["count"]
            )
            registry.gauge(f"sandbox.{name}_sum", **labels).set(hist["sum"])
        self._baseline[target] = (epoch, new_baseline)

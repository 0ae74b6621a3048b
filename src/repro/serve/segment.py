"""The serve-plane telemetry segment: agentless serving counters.

The PR-6 telemetry plane made *sandboxes* scrapeable without agents:
a seqlock-bracketed segment in registered memory, read one-sided.
The deploy service gets the same treatment -- warm-pool hit/miss/
evict, admission accept, and every shed reason live in a fixed-layout
segment carved from the control host's DRAM, updated write-through by
the service's local stores and readable by an external monitor with
one-sided READs: **zero service-CPU events per scrape**, the same
bypass the sandbox segments get.

The wire format is :class:`repro.obs.segment.SegmentLayout` with
serve-specific slot tuples; the seqlock protocol, epoch word, and
torn-read rules are identical (and :func:`scrape_serve` is
:class:`~repro.obs.scrape.TelemetryScraper`'s accept loop).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.net.topology import Host
from repro.obs.scrape import read_segment
from repro.obs.segment import SegmentLayout, TelemetrySegment

#: Monotonic serving counters (u64 each).
SERVE_COUNTER_SLOTS = (
    "warm.hit",            # warm-pool lookups served pre-linked
    "warm.miss",           # warm-pool lookups that fell to the cold path
    "warm.evict",          # LRU/invalidation evictions from the pool
    "admit.accept",        # requests admitted into a class queue
    "shed.queue_full",     # rejected: class queue at depth
    "shed.tenant_quota",   # rejected: per-tenant pending cap
    "shed.unknown_tenant",  # rejected: no registration
    "shed.rate_limited",   # rejected: bucket deficit over policy
    "shed.stopped",        # rejected: service shutting down
    "deploys.completed",   # deploys that reached install-visible
    "deploys.failed",      # deploys that raised (counted, not silent)
)

#: Point-in-time service gauges (f64).
SERVE_GAUGE_SLOTS = (
    "queued",              # tickets waiting across all class queues
    "inflight",            # deploys currently executing
)

#: Log-bucket latency histogram (submit -> install-visible, us).
SERVE_HIST_SLOTS = ("deploy_us",)

#: The serve-plane schema (distinct from the sandbox LAYOUT).
SERVE_LAYOUT = SegmentLayout(
    counters=SERVE_COUNTER_SLOTS,
    gauges=SERVE_GAUGE_SLOTS,
    hists=SERVE_HIST_SLOTS,
)


class ServeSegment(TelemetrySegment):
    """Single-writer serve segment resident on the control host.

    Allocates its span from the host's DRAM and writes through the
    host cache, so the DRAM bytes a remote READ observes are always
    current -- exactly the sandbox segment's contract.
    """

    def __init__(self, host: Host, layout: SegmentLayout = SERVE_LAYOUT):
        self.host = host
        base = host.allocator.alloc(layout.size_bytes, align=64)
        super().__init__(host.cache, base, layout=layout)


def scrape_serve(
    read: Callable[[int, int], Generator],
    base_addr: int,
    layout: SegmentLayout = SERVE_LAYOUT,
    max_retries: Optional[int] = None,
    sim=None,
) -> Generator:
    """Process body: one seqlock-consistent scrape of a serve segment
    (:func:`repro.obs.scrape.read_segment` over ``layout``); returns
    the snapshot."""
    snapshot, _retries = yield from read_segment(
        read, base_addr, layout, max_retries=max_retries, sim=sim,
        what="serve segment",
    )
    return snapshot

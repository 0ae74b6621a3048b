"""CPU cache model with RNIC/DMA incoherence (paper §3.5, Fig 5).

Real x86 servers keep RNIC DMA coherent through DDIO only for a small
LLC slice, and even then the *polling core's* private cache can hold a
stale copy of a line the RNIC just wrote to DRAM.  The paper measures
the resulting "incoherence window": the time between a one-sided RDMA
write landing and the CPU actually observing the new bytes.

We model the mechanism directly:

* CPU loads snapshot the line's bytes into the cache and assign it a
  stochastic eviction deadline drawn from the workload's cache-pressure
  level (CPKI -- cache misses per 1000 instructions).
* DMA writes update DRAM only; cached snapshots go stale.
* A CPU read hits the (possibly stale) snapshot until the line's
  eviction deadline passes or the line is explicitly flushed
  (``clflush``), which is what ``rdx_cc_event`` triggers remotely.

With eviction modeled as a Poisson process of rate
``CPKI/1000 * insn_rate / effective_lines``, the median incoherence
window at CPKI=5 calibrates to ~746 us and falls as ~1/CPKI -- matching
Fig 5's "vanilla RDMA" curve, while an explicit flush gives the ~2 us
flat RDX line.
"""

from __future__ import annotations

import math
from repro.sim.rand import derive_rng
from dataclasses import dataclass, field

from repro import params
from repro.mem.memory import PhysicalMemory
from repro.sim.core import Simulator


@dataclass
class CacheStats:
    """Hit/miss/staleness counters for one cache model."""

    loads: int = 0
    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    flushes: int = 0
    evictions_observed: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.loads if self.loads else 0.0


@dataclass
class _Line:
    snapshot: bytes
    loaded_at: float
    evict_at: float
    dirty: bool = False
    stale: bool = False


class CacheModel:
    """Per-host CPU cache with CPKI-driven eviction pressure.

    All CPU-side reads of DMA-shared memory should go through
    :meth:`cpu_read`; the RNIC writes through :meth:`dma_write`.
    """

    def __init__(
        self,
        sim: Simulator,
        memory: PhysicalMemory,
        cpki: float = 5.0,
        seed: int = 0,
        line_bytes: int = params.CACHE_LINE_BYTES,
        effective_lines: int = params.CACHE_EFFECTIVE_LINES,
    ):
        if cpki < 0:
            raise ValueError("CPKI must be non-negative")
        self.sim = sim
        self.memory = memory
        self.line_bytes = line_bytes
        self.effective_lines = effective_lines
        self._rng = derive_rng(seed, "mem.cache")
        self._lines: dict[int, _Line] = {}
        self.stats = CacheStats()
        self._cpki = cpki

    @property
    def cpki(self) -> float:
        """Cache misses per 1000 instructions of the running workload."""
        return self._cpki

    @cpki.setter
    def cpki(self, value: float) -> None:
        if value < 0:
            raise ValueError("CPKI must be non-negative")
        self._cpki = value

    def _eviction_rate(self) -> float:
        """Per-line eviction rate (events per microsecond)."""
        if self._cpki == 0:
            return 0.0
        fills_per_us = self._cpki / 1000.0 * params.CPU_INSN_PER_US
        return fills_per_us / self.effective_lines

    def _line_addr(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    # -- CPU side ------------------------------------------------------

    def cpu_read(self, addr: int, n: int) -> bytes:
        """Read ``n`` bytes as the CPU sees them (possibly stale).

        One walk over the lines the range touches.  A line that is
        cached and not yet evicted is a hit, stale or not; any other is
        filled from DRAM with a freshly drawn eviction deadline -- one
        draw per missed line, in address order.
        """
        if n <= 0:
            return b""
        line_bytes = self.line_bytes
        first = addr - addr % line_bytes
        now = self.sim.now
        lines = self._lines
        read = self.memory.read
        rate = self._eviction_rate()
        snapshots = []
        hits = stale_hits = misses = evictions = 0
        try:
            for line_addr in range(first, addr + n, line_bytes):
                line = lines.get(line_addr)
                if line is not None:
                    if now < line.evict_at:
                        hits += 1
                        stale_hits += line.stale
                        snapshots.append(line.snapshot)
                        continue
                    evictions += 1
                misses += 1
                snapshot = read(line_addr, line_bytes)
                residency = self._rng.expovariate(rate) if rate > 0 else math.inf
                lines[line_addr] = _Line(snapshot, now, now + residency)
                snapshots.append(snapshot)
        finally:
            # Also on the way out of a read that ran off the end of
            # memory: the lines before it were loaded all the same.
            stats = self.stats
            stats.loads += hits + misses
            stats.hits += hits
            stats.stale_hits += stale_hits
            stats.misses += misses
            stats.evictions_observed += evictions
        skip = addr - first
        return b"".join(snapshots)[skip : skip + n]

    def cpu_write(self, addr: int, data: bytes) -> None:
        """CPU store: write-through to DRAM and refresh the snapshot."""
        self.memory.write(addr, data)
        lines = self._lines
        if not lines or not data:
            return
        line_bytes = self.line_bytes
        sim = self.sim
        read = self.memory.read
        for line_addr in range(addr - addr % line_bytes, addr + len(data), line_bytes):
            line = lines.get(line_addr)
            if line is not None and sim.now < line.evict_at:
                line.snapshot = read(line_addr, line_bytes)
                line.stale = False

    # -- RNIC / DMA side ------------------------------------------------

    def dma_write(self, addr: int, data: bytes) -> None:
        """One-sided RDMA write: DRAM updated, cached copies go stale."""
        self.memory.write(addr, data)
        lines = self._lines
        if not lines or not data:
            return
        line_bytes = self.line_bytes
        sim = self.sim
        for line_addr in range(addr - addr % line_bytes, addr + len(data), line_bytes):
            line = lines.get(line_addr)
            if line is not None and sim.now < line.evict_at:
                line.stale = True

    def dma_read(self, addr: int, n: int) -> bytes:
        """One-sided RDMA read: always sees DRAM (write-through CPU)."""
        return self.memory.read(addr, n)

    # -- coherence control ------------------------------------------------

    def flush(self, addr: int, n: int) -> None:
        """clflush a byte range: cached lines are dropped immediately.

        The next CPU read misses and refills from DRAM, observing any
        DMA-written bytes.  This is the local effect of
        ``rdx_cc_event`` (paper Table 1).
        """
        lines = self._lines
        if not lines or n <= 0:
            return
        line_bytes = self.line_bytes
        flushed = 0
        for line_addr in range(addr - addr % line_bytes, addr + n, line_bytes):
            if lines.pop(line_addr, None) is not None:
                flushed += 1
        self.stats.flushes += flushed

    def flush_all(self) -> None:
        """Drop the entire cache (used between experiment trials)."""
        self._lines.clear()

    def is_stale(self, addr: int) -> bool:
        """True if the CPU would currently read stale bytes at ``addr``."""
        line = self._lines.get(self._line_addr(addr))
        return bool(line and self.sim.now < line.evict_at and line.stale)

"""Byte-addressable simulated DRAM with a first-fit region allocator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MemoryError_


@dataclass(frozen=True)
class MemoryRegion:
    """A [addr, addr+size) window of physical memory."""

    addr: int
    size: int
    label: str = ""

    @property
    def end(self) -> int:
        return self.addr + self.size

    def contains(self, addr: int, n: int = 1) -> bool:
        """True if [addr, addr+n) lies entirely inside this region."""
        return self.addr <= addr and addr + n <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        return self.addr < other.end and other.addr < self.end


class PhysicalMemory:
    """A contiguous bank of simulated DRAM, sparsely backed.

    Addresses are plain ints starting at ``base``.  Reads/writes are
    instantaneous data moves (timing is charged by the caller: the CPU
    model, the RNIC DMA engine, or the cache model).

    Backing storage is demand-paged (4 KiB pages in a dict), so large
    simulated DRAM banks across many hosts cost real memory only for
    the pages actually touched.
    """

    PAGE = 4096

    def __init__(self, size: int, base: int = 0x1000):
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.base = base
        self.size = size
        self._pages: dict[int, bytearray] = {}
        #: Monotone per-write counter, useful for staleness assertions.
        self.write_epoch = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def _check(self, addr: int, n: int) -> int:
        if n < 0:
            raise MemoryError_(f"negative access length {n}")
        if addr < self.base or addr + n > self.base + self.size:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + n:#x}) outside "
                f"[{self.base:#x}, {self.end:#x})"
            )
        return addr - self.base

    def read(self, addr: int, n: int) -> bytes:
        """Read ``n`` bytes at ``addr`` (bounds-checked)."""
        off = self._check(addr, n)
        if n == 0:
            return b""
        first, last = off // self.PAGE, (off + n - 1) // self.PAGE
        if first == last:
            page = self._pages.get(first)
            start = off % self.PAGE
            if page is None:
                return bytes(n)
            return bytes(page[start : start + n])
        out = bytearray()
        cursor = off
        remaining = n
        while remaining > 0:
            page_no, start = divmod(cursor, self.PAGE)
            take = min(self.PAGE - start, remaining)
            page = self._pages.get(page_no)
            if page is None:
                out += bytes(take)
            else:
                out += page[start : start + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` at ``addr`` (bounds-checked)."""
        n = len(data)
        page_no, start = divmod(self._check(addr, n), self.PAGE)
        if 0 < n <= self.PAGE - start:
            page = self._pages.get(page_no)
            if page is None:
                page = self._pages[page_no] = bytearray(self.PAGE)
            page[start : start + n] = data
        else:
            index = 0
            while index < n:
                take = min(self.PAGE - start, n - index)
                page = self._pages.get(page_no)
                if page is None:
                    page = self._pages[page_no] = bytearray(self.PAGE)
                page[start : start + take] = data[index : index + take]
                index += take
                page_no += 1
                start = 0
        self.write_epoch += 1

    def fill(self, addr: int, n: int, byte: int = 0) -> None:
        """memset ``n`` bytes at ``addr``."""
        self._check(addr, n)
        if byte == 0:
            # Drop fully covered pages back to the zero default.
            cursor = addr - self.base
            end = cursor + n
            while cursor < end:
                page_no, start = divmod(cursor, self.PAGE)
                take = min(self.PAGE - start, end - cursor)
                if take == self.PAGE:
                    self._pages.pop(page_no, None)
                else:
                    page = self._pages.get(page_no)
                    if page is not None:
                        page[start : start + take] = bytes(take)
                cursor += take
            self.write_epoch += 1
            return
        self.write(addr, bytes([byte]) * n)


class RegionAllocator:
    """First-fit allocator over a :class:`PhysicalMemory` window.

    Used both for host-wide carve-outs (sandbox code pages, scratchpads)
    and inside the XState scratchpad (paper §3.4), where its free-list
    behaviour is exactly what the Meta-XState indirection manages.
    """

    def __init__(self, base: int, size: int, label: str = "heap"):
        if size <= 0:
            raise ValueError("allocator window must be positive")
        self.base = base
        self.size = size
        self.label = label
        # Free list of (addr, size), sorted by addr, coalesced.
        self._free: list[tuple[int, int]] = [(base, size)]
        self._live: dict[int, int] = {}
        #: End of the highest range ever handed out: below it, a range
        #: may have had an earlier tenant; at or above it, never.
        self.high_water = base

    @property
    def bytes_free(self) -> int:
        return sum(size for _addr, size in self._free)

    @property
    def bytes_live(self) -> int:
        return sum(self._live.values())

    @property
    def live_count(self) -> int:
        return len(self._live)

    @staticmethod
    def _align_up(addr: int, align: int) -> int:
        return (addr + align - 1) & ~(align - 1)

    def alloc(self, size: int, align: int = 8) -> int:
        """Allocate ``size`` bytes aligned to ``align``; returns address.

        Raises :class:`MemoryError_` when no free range fits.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        if align <= 0 or align & (align - 1):
            raise ValueError("alignment must be a positive power of two")
        for index, (addr, free_size) in enumerate(self._free):
            start = self._align_up(addr, align)
            pad = start - addr
            if free_size < pad + size:
                continue
            remainder = free_size - pad - size
            pieces = []
            if pad:
                pieces.append((addr, pad))
            if remainder:
                pieces.append((start + size, remainder))
            self._free[index : index + 1] = pieces
            self._live[start] = size
            self.high_water = max(self.high_water, start + size)
            return start
        raise MemoryError_(
            f"{self.label}: out of space (want {size}, free {self.bytes_free})"
        )

    def reserve(self, addr: int, size: int) -> int:
        """Claim a specific ``[addr, addr+size)`` range from the free list.

        For adopting allocations that already exist in the underlying
        memory -- e.g. a restarted control plane discovering live code
        images on a target it must re-own without moving them.  Raises
        :class:`MemoryError_` when the range is not wholly free.
        """
        if size <= 0:
            raise ValueError("reservation size must be positive")
        for index, (start, free_size) in enumerate(self._free):
            if start <= addr and addr + size <= start + free_size:
                pieces = []
                if addr > start:
                    pieces.append((start, addr - start))
                tail = start + free_size - (addr + size)
                if tail:
                    pieces.append((addr + size, tail))
                self._free[index : index + 1] = pieces
                self._live[addr] = size
                self.high_water = max(self.high_water, addr + size)
                return addr
        raise MemoryError_(
            f"{self.label}: cannot reserve {addr:#x}+{size} "
            "(overlaps a live allocation or lies outside the window)"
        )

    def free(self, addr: int) -> None:
        """Release a previous allocation (must be an exact start address)."""
        size = self._live.pop(addr, None)
        if size is None:
            raise MemoryError_(f"{self.label}: free of unallocated {addr:#x}")
        self._free.append((addr, size))
        self._free.sort()
        self._coalesce()

    def _coalesce(self) -> None:
        merged: list[tuple[int, int]] = []
        for addr, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == addr:
                prev_addr, prev_size = merged[-1]
                merged[-1] = (prev_addr, prev_size + size)
            else:
                merged.append((addr, size))
        self._free = merged

    def size_of(self, addr: int) -> Optional[int]:
        """Size of the live allocation at ``addr``, or None."""
        return self._live.get(addr)

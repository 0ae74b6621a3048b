"""The sandbox-resident telemetry segment and its seqlock protocol.

The control plane is blind to what a sandbox *experienced* -- hook
executions, crashes, bubble stalls, first-exec-after-install -- unless
the sandbox publishes it.  An agent would push metrics; RDX instead
keeps a fixed-layout **telemetry segment** inside the registered MR
span, updated locally by management stubs and hook executions, and
scraped by the control plane with one-sided READs (zero sandbox-CPU
events -- the same bypass the data plane gets).

Torn reads are real: a READ completion proves the snapshot landed in
control-plane memory, not that the writer was quiescent.  The segment
is therefore bracketed by a **seqlock**: a sequence qword the local
writer bumps to odd before touching any slot and back to even after.
A scraper accepts a snapshot only when the sequence word was even and
unchanged across the payload read; everything between brackets --
including the incarnation ``epoch`` word -- is single-writer-session
by construction, so an accepted snapshot can never mix epochs.

Layout (all fields little-endian)::

    off  0   magic   "RDXT"            } header, outside the
    off  4   version u32               } seqlock bracket
    off  8   seq     u64   seqlock word (odd = write in progress)
    off 16   epoch   u64   incarnation (bumped by warm_reboot)
    off 24   slots   fixed schema: counters, gauges, one log-bucket
             histogram (16 x u64 buckets + count u64 + sum f64)

All updates go through ``cache.cpu_write`` -- write-through, so DRAM
always holds the truth a remote READ will observe.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.mem.cache import CacheModel

SEGMENT_MAGIC = b"RDXT"
SEGMENT_VERSION = 2

#: Byte offsets of the header words.
OFF_MAGIC = 0
OFF_SEQ = 8
OFF_EPOCH = 16
SLOTS_BASE = 24

#: Log2 buckets per histogram: bucket ``i`` counts values ``v`` (in
#: microseconds) with ``2**(i-1) <= v < 2**i`` (bucket 0: ``v < 1``,
#: the last bucket absorbs everything above ``2**14``).
HIST_BUCKETS = 16

#: Monotonic counters a sandbox maintains (u64 each).
COUNTER_SLOTS = (
    "exec.count",          # hook executions completed
    "exec.insns",          # instructions retired by extensions
    "exec.crashes",        # SandboxCrash raised from a hook
    "exec.empty",          # data-path events that found an empty hook
    "bubble.stalls",       # data-path events buffered behind a bubble
    "install.observed",    # first exec of a freshly installed image
)

#: Point-in-time gauges (f64, except addresses which are u64).
GAUGE_SLOTS = (
    "reboots",             # warm reboots survived (f64)
    "last_exec_us",        # sim time of the most recent execution
    "first_exec_us",       # sim time the newest install first ran
    "last_install_addr",   # code address of that install (u64)
)

#: Log-bucket histograms (buckets + count + sum each).
HIST_SLOTS = ("exec_us",)

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def bucket_of(value_us: float) -> int:
    """Log2 bucket index for a microsecond value."""
    return min(HIST_BUCKETS - 1, max(0, int(value_us)).bit_length())


class SegmentLayout:
    """Field-name -> (offset, format) map over a fixed slot schema.

    Defaults to the sandbox exec schema above; other planes (e.g. the
    deploy service's serve segment) instantiate their own slot tuples
    and get the same seqlock-bracketed wire format.
    """

    def __init__(
        self,
        counters: tuple[str, ...] = COUNTER_SLOTS,
        gauges: tuple[str, ...] = GAUGE_SLOTS,
        hists: tuple[str, ...] = HIST_SLOTS,
    ):
        self.counters = counters
        self.gauges = gauges
        self.hists = hists
        self.fields: dict[str, tuple[int, str]] = {}
        offset = SLOTS_BASE
        for name in counters:
            self.fields[name] = (offset, "q")
            offset += 8
        for name in gauges:
            fmt = "q" if name.endswith("_addr") else "d"
            self.fields[name] = (offset, fmt)
            offset += 8
        for name in hists:
            for bucket in range(HIST_BUCKETS):
                self.fields[f"{name}.bucket{bucket}"] = (offset, "q")
                offset += 8
            self.fields[f"{name}.count"] = (offset, "q")
            offset += 8
            self.fields[f"{name}.sum"] = (offset, "d")
            offset += 8
        # Round up so segments stay cacheline-tileable.
        self.size_bytes = (offset + 63) // 64 * 64

    def decode_field(self, raw: bytes, name: str):
        offset, fmt = self.fields[name]
        packer = _U64 if fmt == "q" else _F64
        return packer.unpack_from(raw, offset)[0]


#: The one schema every sandbox and scraper share (versioned above).
LAYOUT = SegmentLayout()


@dataclass
class SegmentSnapshot:
    """A decoded (not-necessarily-consistent) view of segment bytes."""

    seq: int
    epoch: int
    values: dict[str, float] = field(default_factory=dict)
    valid: bool = True

    @property
    def consistent(self) -> bool:
        """Seqlock-consistent as far as *this* buffer can tell."""
        return self.valid and self.seq % 2 == 0

    def histogram(self, name: str) -> dict:
        buckets = [
            int(self.values[f"{name}.bucket{i}"]) for i in range(HIST_BUCKETS)
        ]
        return {
            "buckets": buckets,
            "count": int(self.values[f"{name}.count"]),
            "sum": float(self.values[f"{name}.sum"]),
        }


def seq_of(raw: bytes) -> int:
    """The seqlock word embedded in a raw segment read."""
    return _U64.unpack_from(raw, OFF_SEQ)[0]


def decode_segment(raw: bytes, layout: SegmentLayout = LAYOUT) -> SegmentSnapshot:
    """Decode raw segment bytes; does NOT imply seqlock consistency."""
    valid = (
        len(raw) >= layout.size_bytes
        and bytes(raw[OFF_MAGIC:OFF_MAGIC + 4]) == SEGMENT_MAGIC
    )
    snapshot = SegmentSnapshot(
        seq=seq_of(raw) if len(raw) >= OFF_SEQ + 8 else 0,
        epoch=_U64.unpack_from(raw, OFF_EPOCH)[0] if valid else 0,
        valid=valid,
    )
    if valid:
        for name in layout.fields:
            snapshot.values[name] = layout.decode_field(raw, name)
    return snapshot


class TelemetrySegment:
    """The sandbox-side (single) writer of one telemetry segment.

    Every mutation runs inside a seqlock bracket: ``seq`` goes odd,
    the slot qwords land, ``seq`` goes back even.  ``begin_update`` /
    ``end_update`` (``with segment:``) expose the bracket so whatever a
    writer stores between two yields (and deliberately torn test
    schedules) costs two seq bumps total.
    """

    def __init__(self, cache: CacheModel, base_addr: int,
                 layout: SegmentLayout = LAYOUT):
        self.cache = cache
        self.base_addr = base_addr
        self.layout = layout
        self._seq = 0
        self._depth = 0
        self._values: dict[str, float] = {}
        self._seen_pointers: dict[str, int] = {}
        self._seq_addr = base_addr + OFF_SEQ
        self._fields = layout.fields
        cache.cpu_write(
            base_addr + OFF_MAGIC,
            SEGMENT_MAGIC + struct.pack("<I", SEGMENT_VERSION),
        )
        cache.cpu_write(self._seq_addr, _U64.pack(0))
        self.reset(epoch=1)

    @property
    def size_bytes(self) -> int:
        return self.layout.size_bytes

    @property
    def epoch(self) -> int:
        return int(self._values.get("__epoch__", 0))

    # -- seqlock bracket ---------------------------------------------------

    def begin_update(self) -> None:
        """Open the seqlock bracket (seq -> odd).  Re-entrant."""
        self._depth += 1
        if self._depth == 1:
            self._seq += 1
            self.cache.cpu_write(self._seq_addr, _U64.pack(self._seq))

    def end_update(self) -> None:
        """Close the seqlock bracket (seq -> even)."""
        if self._depth <= 0:
            raise RuntimeError("end_update() without begin_update()")
        self._depth -= 1
        if self._depth == 0:
            self._seq += 1
            self.cache.cpu_write(self._seq_addr, _U64.pack(self._seq))

    def __enter__(self) -> "TelemetrySegment":
        self.begin_update()
        return self

    def __exit__(self, *_exc) -> None:
        self.end_update()

    # -- slot updates ------------------------------------------------------

    def _store(self, name: str, value) -> None:
        """Land one slot: inside the open bracket, else in its own."""
        offset, fmt = self._fields[name]
        addr = self.base_addr + offset
        self._values[name] = value
        data = (_U64.pack(int(value) & 0xFFFF_FFFF_FFFF_FFFF) if fmt == "q"
                else _F64.pack(float(value)))
        if self._depth:
            self.cache.cpu_write(addr, data)
            return
        self.begin_update()
        try:
            self.cache.cpu_write(addr, data)
        finally:
            self.end_update()

    def inc(self, name: str, delta: int = 1) -> None:
        self._store(name, int(self._values.get(name, 0)) + delta)

    def set_gauge(self, name: str, value) -> None:
        self._store(name, value)

    def observe(self, name: str, value_us: float) -> None:
        with self:
            bucket = f"{name}.bucket{bucket_of(value_us)}"
            self._store(bucket, int(self._values.get(bucket, 0)) + 1)
            self._store(
                f"{name}.count", int(self._values.get(f"{name}.count", 0)) + 1
            )
            self._store(
                f"{name}.sum",
                float(self._values.get(f"{name}.sum", 0.0)) + value_us,
            )

    def note_exec(
        self,
        hook_name: str,
        pointer: int,
        insns_executed: int,
        cost_us: float,
        now_us: float,
    ) -> bool:
        """Record one hook execution under a single seqlock bracket.

        Returns True when ``pointer`` differs from the last image this
        hook executed -- the sandbox-visible *install-observed* edge a
        causal deploy trace terminates on.
        """
        first_exec = self._seen_pointers.get(hook_name) != pointer
        with self:
            self._store(
                "exec.count", int(self._values.get("exec.count", 0)) + 1
            )
            self._store(
                "exec.insns",
                int(self._values.get("exec.insns", 0)) + insns_executed,
            )
            self._store("last_exec_us", now_us)
            bucket = f"exec_us.bucket{bucket_of(cost_us)}"
            self._store(bucket, int(self._values.get(bucket, 0)) + 1)
            self._store(
                "exec_us.count", int(self._values.get("exec_us.count", 0)) + 1
            )
            self._store(
                "exec_us.sum",
                float(self._values.get("exec_us.sum", 0.0)) + cost_us,
            )
            if first_exec:
                self._seen_pointers[hook_name] = pointer
                self._store(
                    "install.observed",
                    int(self._values.get("install.observed", 0)) + 1,
                )
                self._store("first_exec_us", now_us)
                self._store("last_install_addr", pointer)
        return first_exec

    def reset(self, epoch: int) -> None:
        """Zero every slot and stamp a new incarnation epoch.

        The epoch word lives *inside* the seqlock bracket, so a scraper
        can never pair pre-reset counters with the post-reset epoch.
        """
        with self:
            self.cache.cpu_write(
                self.base_addr + OFF_EPOCH, _U64.pack(epoch)
            )
            for name in self.layout.fields:
                self._store(name, 0)
        self._values["__epoch__"] = epoch
        self._seen_pointers = {}

    # -- test/debug helpers ------------------------------------------------

    def snapshot_local(self) -> SegmentSnapshot:
        """Writer-side decoded view straight from DRAM (no RDMA)."""
        raw = self.cache.memory.read(self.base_addr, self.layout.size_bytes)
        return decode_segment(bytes(raw), self.layout)


def segment_region(base_addr: int,
                   layout: SegmentLayout = LAYOUT) -> tuple[int, int]:
    """The [start, end) byte range a scraper must READ."""
    return base_addr, base_addr + layout.size_bytes

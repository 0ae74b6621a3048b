"""The sandbox runtime: code pages, hooks, metadata, XState, execution.

One :class:`Sandbox` per pod/VM on a host.  Its entire control surface
is plain memory -- which is the paper's core enabling observation
("code is data"): a remote control plane holding the boot manifest can
perform every lifecycle operation with one-sided RDMA.

Memory layout (all carved from the host allocator)::

    control block   64 B    lock / epoch / bubble flag / doorbell
    GOT             4 KiB   qword per symbol
    hook table      512 B   qword per hook slot
    metadata array  16 KiB  256 B per descriptor slot
    telemetry seg   256 B   seqlock-guarded counters (obs/segment.py)
    code region     8 MiB   JIT images (RegionAllocator)
    scratchpad      16 MiB  Meta-XState index + XState allocations
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import params
from repro.errors import MemoryError_, ReproError, SandboxCrash, SandboxError
from repro.ebpf.helpers import HELPERS
from repro.ebpf.interpreter import ExecutionResult, Interpreter
from repro.ebpf.jit import JitBinary, decode_image
from repro.ebpf.maps import MapType
from repro.ebpf.program import BpfProgram
from repro.mem.layout import pack_qword, unpack_qword
from repro.mem.memory import RegionAllocator
from repro.net.topology import Host
from repro.obs.segment import LAYOUT as TELEMETRY_LAYOUT
from repro.obs.segment import TelemetrySegment
from repro.rdma.mr import AccessFlags, MemoryRegionMr, ProtectionDomain
from repro.sandbox.got import GlobalContext, SymbolKind
from repro.sandbox.hooks import HookTable
from repro.sandbox.metadata import (
    MetadataArray,
    MetadataBlock,
    SLOT_DETACHED,
    SLOT_EMPTY,
    SLOT_LIVE,
)
from repro.sandbox.xmaps import MemoryBackedMap

# Control-block field offsets.
OFF_LOCK = 0
OFF_EPOCH = 8
OFF_BUBBLE = 16
OFF_DOORBELL = 24
CONTROL_BLOCK_BYTES = 64

#: Base of the per-sandbox helper-function address space.
HELPER_ADDR_BASE = 0xFFFF_8000_0000_0000

#: No image header may claim more: 2,000,000 slots.
_MAX_IMAGE_BYTES = 8 + 2_000_000 * 10 + 4


@dataclass
class BootManifest:
    """What ``ctx_register`` hands the remote control plane, once.

    Addresses + rkeys + static layouts; everything else is readable
    over RDMA at runtime.
    """

    sandbox_name: str
    host_name: str
    arch: str
    control_addr: int
    got_addr: int
    got_layout: dict[str, int]
    hook_table_addr: int
    hook_layout: dict[str, int]
    metadata_addr: int
    metadata_slots: int
    code_addr: int
    code_bytes: int
    scratchpad_addr: int
    scratchpad_bytes: int
    meta_xstate_addr: int
    meta_xstate_slots: int
    rkey: int = 0
    helper_addresses: dict[str, int] = field(default_factory=dict)
    #: The seqlock-guarded telemetry segment a scraper READs
    #: one-sidedly (see :mod:`repro.obs.segment`).
    telemetry_addr: int = 0
    telemetry_bytes: int = 0


class Sandbox:
    """A runtime extension sandbox bound to one host."""

    def __init__(
        self,
        host: Host,
        name: str = "",
        hooks: tuple[str, ...] = ("ingress", "egress"),
        arch: str = "x86_64",
        code_bytes: int = params.SANDBOX_CODE_BYTES,
        scratchpad_bytes: int = params.XSTATE_SCRATCHPAD_BYTES,
    ):
        self.host = host
        self.sandbox_id = next(host.sim.ids.sandbox)
        self.name = name or f"{host.name}.sb{self.sandbox_id}"
        self.arch = arch
        self._hooks = tuple(hooks)
        self.crashed = False
        self.crash_reason = ""
        self.reboots = 0
        # The two switches the hook path branches on, read once.
        config = params.config_of(host.sim)
        self._obs = config.obs
        self._hb = config.hb_check

        allocate = host.allocator.alloc
        self.control_addr = allocate(CONTROL_BLOCK_BYTES, align=64)
        host.memory.fill(self.control_addr, CONTROL_BLOCK_BYTES, 0)

        got_addr = allocate(4096, align=64)
        self.got = GlobalContext(host.memory, got_addr, capacity=512)

        hook_addr = allocate(params.SANDBOX_HOOK_SLOTS * 8, align=64)
        host.memory.fill(hook_addr, params.SANDBOX_HOOK_SLOTS * 8, 0)
        self.hook_table = HookTable(
            host.cache, hook_addr, params.SANDBOX_HOOK_SLOTS
        )

        metadata_addr = allocate(64 * 256, align=64)
        self.metadata = MetadataArray(host.memory, metadata_addr, slots=64)

        # Telemetry segment: allocated between metadata and code so it
        # lands inside the single MR span ctx_register registers.
        self.telemetry = TelemetrySegment(
            host.cache, allocate(TELEMETRY_LAYOUT.size_bytes, align=64)
        )

        self.code_base = allocate(code_bytes, align=4096)
        self.code_bytes = code_bytes
        self.code_allocator = RegionAllocator(
            self.code_base, code_bytes, label=f"{self.name}.code"
        )

        self.scratchpad_base = allocate(scratchpad_bytes, align=4096)
        self.scratchpad_bytes = scratchpad_bytes

        #: Live map objects by slot index (data-path view of XState).
        self.maps: list[MemoryBackedMap] = []
        self._maps_by_addr: dict[int, int] = {}
        self._helper_addr_to_id: dict[int, int] = {}
        self._hostcall_addr_to_id: dict[int, int] = {}
        self._code_len_by_addr: dict[int, int] = {}
        # Instruction-cache analogue: code address -> (the exact image
        # bytes that were decoded, the decoded instructions), least
        # recently executed first.  A hit needs the bytes now at the
        # address to *equal* the remembered ones (a memcmp, no hash of
        # the image), so a torn/corrupt image always misses and the
        # decoder still crashes on it.  Bounded: two per declared hook
        # -- the live image and the one it is being swapped with.
        self._decode_cache: dict[int, tuple[bytes, list]] = {}
        self._decode_cache_cap = max(4, 2 * len(self._hooks))
        self.events_executed = 0
        self.mr: Optional[MemoryRegionMr] = None
        self.ctx_manifest: Optional[BootManifest] = None

        self._ctx_init(hooks)

    # -- management stubs (§3.1) -------------------------------------------

    def _ctx_init(self, hooks: tuple[str, ...]) -> None:
        """ctx_init: preload empty descriptors and declare hook points.

        Defines both extension families' local entry points in the GOT:
        eBPF helpers and Wasm host calls get per-sandbox addresses, so
        images linked for a *different* sandbox crash here -- linking
        really is per-target (§3.3).
        """
        from repro.wasm.hostcalls import HOST_CALLS

        self.metadata.init_empty()
        for hook in hooks:
            self.hook_table.declare(hook)
        base = HELPER_ADDR_BASE + (self.sandbox_id << 20)
        for helper_id, helper in sorted(HELPERS.items()):
            address = base + helper_id * 0x40
            self.got.define(helper.name, SymbolKind.HELPER, address, token=helper_id)
            self._helper_addr_to_id[address] = helper_id
        wasm_base = base + 0x1_0000
        for call_id, call in sorted(HOST_CALLS.items()):
            address = wasm_base + call_id * 0x40
            self.got.define(call.name, SymbolKind.HELPER, address, token=call_id)
            self._hostcall_addr_to_id[address] = call_id

    def ctx_register(self, pd: ProtectionDomain) -> BootManifest:
        """ctx_register: RDMA-register the control surface; one-time.

        Registers one MR spanning all sandbox regions (control block
        through scratchpad) and returns the boot manifest the remote
        control plane needs.
        """
        span_start = self.control_addr
        span_end = self.scratchpad_base + self.scratchpad_bytes
        self._boot_pd = pd
        self.mr = pd.reg_mr(
            span_start,
            span_end - span_start,
            AccessFlags.REMOTE_READ
            | AccessFlags.REMOTE_WRITE
            | AccessFlags.REMOTE_ATOMIC
            | AccessFlags.LOCAL_WRITE,
        )
        self.ctx_manifest = BootManifest(
            sandbox_name=self.name,
            host_name=self.host.name,
            arch=self.arch,
            control_addr=self.control_addr,
            got_addr=self.got.base_addr,
            got_layout=self.got.layout(),
            hook_table_addr=self.hook_table.base_addr,
            hook_layout=self.hook_table.names(),
            metadata_addr=self.metadata.base_addr,
            metadata_slots=self.metadata.slots,
            code_addr=self.code_base,
            code_bytes=self.code_bytes,
            scratchpad_addr=self.scratchpad_base,
            scratchpad_bytes=self.scratchpad_bytes,
            meta_xstate_addr=self.scratchpad_base,
            meta_xstate_slots=params.XSTATE_META_SLOTS,
            rkey=self.mr.rkey,
            helper_addresses={
                name: self.got.address_of(name)
                for name in self.got.layout()
            },
            telemetry_addr=self.telemetry.base_addr,
            telemetry_bytes=self.telemetry.size_bytes,
        )
        return self.ctx_manifest

    def warm_reboot(self) -> None:
        """Restart the sandbox runtime with DRAM intact (warm reboot).

        What a process restart on a recovered host looks like: the
        *volatile* control surface -- control block (epoch included),
        hook pointers, metadata descriptors, the Meta-XState index --
        comes back zeroed by a fresh ``ctx_init``, while old code
        images and XState chunks survive in DRAM as unreachable bytes.
        The MR registration is re-established at the same addresses,
        so the boot manifest stays valid and a control plane can
        repair the surface one-sidedly (see
        :class:`repro.core.reconcile.Reconciler`).
        """
        # A reboot leaves no process-lifetime cache lines behind: any
        # address the old incarnation had cached (and that a repair may
        # now reuse) must be re-read from DRAM.
        self.host.cache.flush_all()
        cpu_write = self.host.cache.cpu_write
        cpu_write(self.control_addr, bytes(CONTROL_BLOCK_BYTES))
        cpu_write(
            self.hook_table.base_addr, bytes(params.SANDBOX_HOOK_SLOTS * 8)
        )
        cpu_write(
            self.scratchpad_base,
            bytes(params.XSTATE_META_SLOTS * params.XSTATE_META_ENTRY_BYTES),
        )
        self.code_allocator = RegionAllocator(
            self.code_base, self.code_bytes, label=f"{self.name}.code"
        )
        self.maps = []
        self._maps_by_addr = {}
        self._code_len_by_addr = {}
        self._decode_cache = {}
        self.crashed = False
        self.crash_reason = ""
        self.reboots += 1
        # New incarnation: counters restart from zero under a bumped
        # epoch word, so a scraper can never blend pre-crash totals
        # into post-recovery series (the epoch lives inside the
        # seqlock bracket -- see obs/segment.py).
        self.telemetry.reset(epoch=self.reboots + 1)
        self.telemetry.set_gauge("reboots", float(self.reboots))
        self._ctx_init(self._hooks)

    def ctx_teardown(self, prog_id: int) -> bool:
        """ctx_teardown: drop one reference; detach at zero (§3.1)."""
        index = self.metadata.find_by_prog_id(prog_id)
        if index is None:
            raise SandboxError(f"no live program {prog_id}")
        block = self.metadata.read(index)
        block.ref_count = max(0, block.ref_count - 1)
        if block.ref_count == 0:
            block.state = SLOT_DETACHED
            for hook, _slot in self.hook_table.names().items():
                if self.hook_table.pointer_in_dram(hook) == block.code_addr:
                    self.hook_table.write_pointer(hook, 0)
            if block.code_addr and self.code_allocator.size_of(block.code_addr):
                self.code_allocator.free(block.code_addr)
            self._code_len_by_addr.pop(block.code_addr, None)
            self._decode_cache.pop(block.code_addr, None)
            detached = True
        else:
            detached = False
        self.metadata.write(index, block)
        return detached

    # -- local (agent-path) install -----------------------------------------

    def install_local(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        ref_count: int = 1,
    ) -> int:
        """Agent-path attach: CPU writes image + metadata + hook pointer.

        Returns the code address.  Coherent by construction (CPU writes
        are write-through and refresh the cache).  Replacing the hook's
        current occupant detaches it: its descriptor slot is reclaimed
        and its code pages freed (the kernel drops a program when its
        last reference goes).
        """
        previous = self.hook_table.pointer_in_dram(hook_name)
        if previous:
            self._evict_local(previous)
        code_addr = self.code_allocator.alloc(len(linked.code), align=64)
        self.host.cache.cpu_write(code_addr, linked.code)
        self._code_len_by_addr[code_addr] = len(linked.code)
        slot = self.metadata.find_free()
        if slot is None:
            self.code_allocator.free(code_addr)
            raise SandboxError("metadata array full")
        self.metadata.write(
            slot,
            MetadataBlock(
                state=SLOT_LIVE,
                prog_id=program.prog_id,
                insn_cnt=len(program.insns),
                ref_count=ref_count,
                code_addr=code_addr,
                code_len=len(linked.code),
                hook_slot=self.hook_table.slot_index(hook_name),
                version=1,
                tag=program.tag().encode()[:16],
                name=program.name,
            ),
        )
        self.hook_table.write_pointer(hook_name, code_addr)
        return code_addr

    def _evict_local(self, code_addr: int) -> None:
        """Drop a locally installed image being replaced at its hook."""
        if self.code_allocator.size_of(code_addr) is None:
            return  # remotely deployed image; its CodeFlow owns it
        for index in range(self.metadata.slots):
            block = self.metadata.read(index)
            if block.state == SLOT_LIVE and block.code_addr == code_addr:
                block.state = SLOT_DETACHED
                self.metadata.write(index, block)
                break
        self.code_allocator.free(code_addr)
        self._code_len_by_addr.pop(code_addr, None)
        self._decode_cache.pop(code_addr, None)

    def register_map(self, name: str, bpf_map: MemoryBackedMap) -> int:
        """Expose a live map to programs; returns its slot index."""
        slot = len(self.maps)
        self.maps.append(bpf_map)
        self._maps_by_addr[bpf_map.base_addr] = slot
        self.got.define(name, SymbolKind.MAP, bpf_map.base_addr, token=slot)
        return slot

    def create_map(
        self,
        name: str,
        map_type: MapType,
        key_size: int,
        value_size: int,
        max_entries: int,
    ) -> MemoryBackedMap:
        """Allocate a map in the scratchpad (local path convenience)."""
        probe = MemoryBackedMap.geometry_size(
            key_size, value_size, max_entries
        )
        addr = self.host.allocator.alloc(probe, align=64)
        bpf_map = MemoryBackedMap(
            self.host.cache, addr, map_type, key_size, value_size,
            max_entries, name=name,
        )
        self.register_map(name, bpf_map)
        return bpf_map

    # -- remote-side reverse lookups (data path decoding) --------------------

    def _helper_at(self, address: int) -> Optional[int]:
        return self._helper_addr_to_id.get(address)

    def _map_slot_at(self, address: int) -> Optional[int]:
        slot = self._maps_by_addr.get(address)
        if slot is not None:
            return slot
        return self._adopt_remote_map(address)

    def _adopt_remote_map(self, address: int) -> Optional[int]:
        """Discover a remotely deployed XState map from its header.

        The control plane wrote ``[header][slots...]`` into the
        scratchpad; ``address`` points at the slot area.  The header
        carries the geometry, so the data path can construct its local
        view without any agent involvement.
        """
        header_addr = address - params.XSTATE_HEADER_BYTES
        if not (
            self.scratchpad_base
            <= header_addr
            < self.scratchpad_base + self.scratchpad_bytes
        ):
            return None
        header = self.host.cache.cpu_read(header_addr, params.XSTATE_HEADER_BYTES)
        if header[0] == 0:
            return None
        from repro.core.xstate import decode_xstate_header

        decoded = decode_xstate_header(bytes(header))
        if decoded is None:
            return None
        bpf_map = MemoryBackedMap(
            self.host.cache,
            address,
            decoded.map_type,
            decoded.key_size,
            decoded.value_size,
            decoded.max_entries,
            name=f"xstate@{address:#x}",
            initialize=False,
        )
        slot = len(self.maps)
        self.maps.append(bpf_map)
        self._maps_by_addr[address] = slot
        return slot

    # -- data-path execution -------------------------------------------------

    def run_hook(
        self, hook_name: str, ctx: bytes, time_ns: int = 0
    ) -> tuple[Optional[ExecutionResult], float]:
        """Execute the extension attached at ``hook_name``.

        Returns ``(result, cpu_cost_us)``; result is None when the hook
        is empty.  All reads go through the cache, so stale pointers
        and torn images behave exactly as on real hardware: whatever
        goes wrong between fetching the image and its last instruction
        marks the sandbox crashed and raises :class:`SandboxCrash`.
        """
        return self._run_hook(
            hook_name,
            decode_image,
            # Built once the image is decoded: decoding is what adopts
            # the maps a remotely deployed image brings along.
            lambda insns: Interpreter(maps=self.maps, time_ns=time_ns).run(
                insns, ctx
            ),
            helper_at=self._helper_at,
            map_slot_at=self._map_slot_at,
        )

    def run_wasm_hook(
        self, hook_name: str, request_ctx, args: tuple[int, ...] = ()
    ) -> tuple[Optional[object], float]:
        """Execute the Wasm filter attached at ``hook_name``.

        :meth:`run_hook` for the stack-machine flavour; returns
        ``(WasmResult | None, cpu_cost_us)``.
        """
        from repro.wasm.compiler import decode_wasm_image
        from repro.wasm.runtime import WasmRuntime

        return self._run_hook(
            hook_name,
            decode_wasm_image,
            lambda instrs: WasmRuntime().run(instrs, request_ctx, args=args),
            host_call_at=self._hostcall_addr_to_id.get,
        )

    def _run_hook(self, hook_name: str, decode, execute, **reverse_got):
        """Fetch, decode and execute whatever ``hook_name`` points at.

        ``decode`` is the extension family's image decoder,
        ``reverse_got`` its address lookups and ``execute`` runs the
        decoded instructions.
        """
        pointer = self.hook_table.read_pointer(hook_name)
        if pointer == 0:
            if self._obs:
                self.telemetry.inc("exec.empty")
            return None, 0.1  # empty-hook fast path
        try:
            extent = self._image_extent(pointer)
            if self._hb:
                self._emit_hb_exec(hook_name, pointer, extent)
            result = execute(
                self._decoded_at(pointer, extent, decode, **reverse_got)
            )
        except ReproError as fault:
            # A wild hook pointer (a memory fault) and a run-time fault
            # of the program crash the sandbox like a torn image does.
            self.crashed = True
            self.crash_reason = str(fault)
            if self._obs:
                self.telemetry.inc("exec.crashes")
            if isinstance(fault, SandboxCrash):
                raise
            raise SandboxCrash(str(fault)) from fault
        self.events_executed += 1
        cost_us = result.insns_executed / params.CPU_INSN_PER_US + 0.2
        if self._obs:
            self._note_exec(hook_name, pointer, result.insns_executed, cost_us)
        return result, cost_us

    def _note_exec(
        self, hook_name: str, pointer: int, insns: int, cost_us: float
    ) -> None:
        """Publish one execution into the telemetry segment.

        The first execution of a freshly installed image is the
        *install-observed* edge: it closes the causal deploy trace, so
        it is also mirrored into the sim-wide trace recorder where the
        span reconstruction (obs/spans.py) can join it on ``pointer``.
        """
        from repro.obs import telemetry_of

        now = self.host.sim.now
        first_exec = self.telemetry.note_exec(
            hook_name, pointer, insns, cost_us, now
        )
        if first_exec:
            telemetry_of(self.host.sim).recorder.record(
                now,
                "rdx.trace.first_exec",
                target=self.name,
                hook=hook_name,
                pointer=pointer,
            )

    def _image_extent(self, code_addr: int) -> int:
        """Bytes the image at ``code_addr`` says it spans: its header,
        read through the cache, sizes what is fetched and decoded.  A
        pointer at no memory at all is sized as the header alone, and
        fetching that is what faults."""
        try:
            header = self.host.cache.cpu_read(code_addr, 8)
        except MemoryError_:
            return 8
        return 8 + int.from_bytes(header[4:8], "little") * 10 + 4

    def _emit_hb_exec(self, hook_name: str, pointer: int, extent: int) -> None:
        """Record the hook execution for the happens-before checker.

        Emitted *before* decoding, so an exec that crashes on a torn
        image still shows up as the racing read it was.  The code
        range is the extent the decode is about to fetch, clamped to
        the code region when the header itself is torn garbage.
        """
        from repro.hb import events as hb_events

        if not 0 < extent <= self.code_bytes:
            extent = self.code_bytes
        hb_events.emit(
            self.host.sim,
            "hb.exec",
            target=self.host.name,
            hook=hook_name,
            hook_addr=self.hook_table.slot_addr(hook_name),
            pointer=pointer,
            addr=pointer,
            length=extent,
        )

    def _decoded_at(self, code_addr: int, extent: int, decode, **reverse_got) -> list:
        """The instructions of the ``extent``-byte image at
        ``code_addr``, through the decode cache; ``decode`` is the
        extension family's decoder and ``reverse_got`` its address
        lookups.  Reads go through the CPU cache, so what is decoded is
        what this CPU would fetch."""
        if extent > min(self.code_bytes, _MAX_IMAGE_BYTES):
            raise SandboxCrash(f"implausible image header at {code_addr:#x}")
        image = self.host.cache.cpu_read(code_addr, extent)
        cached = self._decode_cache.pop(code_addr, None)
        if cached is None or cached[0] != image:
            cached = (image, decode(image, expect_arch=self.arch, **reverse_got))
        self._decode_cache[code_addr] = cached  # most recently executed last
        if len(self._decode_cache) > self._decode_cache_cap:
            del self._decode_cache[next(iter(self._decode_cache))]
        return cached[1]

    # -- control block accessors ------------------------------------------

    @property
    def lock_addr(self) -> int:
        return self.control_addr + OFF_LOCK

    @property
    def epoch_addr(self) -> int:
        return self.control_addr + OFF_EPOCH

    @property
    def bubble_addr(self) -> int:
        return self.control_addr + OFF_BUBBLE

    def bubble_active(self) -> bool:
        """Data-path check of the BBU buffering flag (through cache)."""
        active = unpack_qword(self.host.cache.cpu_read(self.bubble_addr, 8)) != 0
        if active and self._obs:
            self.telemetry.inc("bubble.stalls")
        return active

    def epoch(self) -> int:
        return unpack_qword(self.host.cache.cpu_read(self.epoch_addr, 8))

    def cpu_try_lock(self, owner: int) -> bool:
        """CPU-side lock acquire (lock-prefixed CAS semantics: DRAM truth)."""
        current = unpack_qword(self.host.memory.read(self.lock_addr, 8))
        if current != 0:
            return False
        self.host.cache.cpu_write(self.lock_addr, pack_qword(owner))
        return True

    def cpu_unlock(self, owner: int) -> None:
        current = unpack_qword(self.host.memory.read(self.lock_addr, 8))
        if current != owner:
            raise SandboxError(f"unlock by non-owner {owner}")
        self.host.cache.cpu_write(self.lock_addr, pack_qword(0))

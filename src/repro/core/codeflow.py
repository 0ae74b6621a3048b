"""CodeFlow: the per-target handle for remote extension lifecycle.

A CodeFlow binds the remote control plane to one sandbox (Fig 3).  All
its mutating operations are simulation processes (generators) because
they move real bytes over the simulated RDMA fabric; none of them
charge CPU time on the *target* host -- that is the agentless
property the experiments measure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Generator, Optional, TYPE_CHECKING

from repro import params
from repro.errors import DeployError, ReproError, StaleEpochError, XStateError
from repro.hb import events as hb
from repro.ebpf.jit import JitBinary, RelocKind
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.mem.memory import RegionAllocator
from repro.obs import telemetry_of
from repro.rdma.rnic import RNIC_MTU_BYTES
from repro.obs.spans import Span
from repro.sandbox.metadata import MetadataBlock, SLOT_DETACHED, SLOT_LIVE
from repro.sandbox.sandbox import Sandbox
from repro.core.linker import RemoteLinker
from repro.core.sync import RemoteSync
from repro.core.xstate import (
    RemoteScratchpad,
    XStateHandle,
    XStateSpec,
    encode_xstate_header,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control_plane import RdxControlPlane


@dataclass
class DeployReport:
    """Per-phase latency breakdown of one deployment (Fig 4b)."""

    deploy_id: int
    program_name: str
    started_us: float
    dispatch_us: float = 0.0
    link_us: float = 0.0
    write_us: float = 0.0
    commit_us: float = 0.0
    cc_us: float = 0.0
    total_us: float = 0.0
    #: Where the image landed -- the join key between this deploy's
    #: trace and the sandbox-side first-exec edge (obs/spans.py).
    code_addr: int = 0
    #: "full" (entire image staged into a fresh extent) or "delta"
    #: (only the dirty chunks written into the baseline extent).
    mode: str = "full"
    #: Dirty MTU chunks shipped (delta mode; 0 = metadata-only bump).
    delta_chunks: int = 0
    #: Bytes that crossed the wire for image + metadata descriptor.
    bytes_moved: int = 0
    #: Version of the baseline image the delta was diffed against.
    delta_base_version: int = 0
    #: True when the image came out of the artifact store's pin stage
    #: -- validate+JIT+link were all skipped (see
    #: :mod:`repro.core.artifacts`).
    warm: bool = False

    def phases(self) -> dict[str, float]:
        return {
            "dispatch": self.dispatch_us,
            "link": self.link_us,
            "write": self.write_us,
            "commit": self.commit_us,
            "cc": self.cc_us,
        }


@dataclass
class DeployedProgram:
    """Control-plane record of one live extension on the target."""

    program: BpfProgram
    hook_name: str
    code_addr: int
    code_len: int
    metadata_slot: int
    version: int = 1
    #: Previous code addresses, newest last (rollback targets).
    history: list[int] = field(default_factory=list)
    #: Exact bytes of the live image (None when unknown, e.g. after a
    #: rollback flip) -- what the next deploy diffs against once this
    #: extent becomes the baseline.
    image: Optional[bytes] = None
    #: (arch, GOT-layout fingerprint) the image was linked under: the
    #: part of the link-stage key a delta deploy must match, and what
    #: certifies the layout for the next deploy on its hook.
    layout: Optional[tuple] = None
    #: Superseded-but-resident extent kept alive as the delta diff
    #: base (None when no baseline is registered).
    baseline_addr: Optional[int] = None
    #: Exact bytes resident at ``baseline_addr``.
    baseline_image: Optional[bytes] = None
    #: Version the baseline image shipped as (delta provenance).
    baseline_version: int = 0


@dataclass
class RollbackRecord:
    """One completed rollback (:meth:`CodeFlow.rollback`)."""

    program_name: str
    target: str
    from_addr: int
    to_addr: int
    duration_us: float


@dataclass
class _DeployPlan:
    """What one deploy moves, decided before its first byte is posted.

    Two shapes: a *full* plan stages the whole image into a newly
    allocated extent; a *delta* plan rewrites only the dirty spans of
    the resident baseline extent and flips the hook to it.
    """

    #: Record that owns the hook now (None: the hook is empty).  The
    #: commit CAS expects its ``code_addr``.
    existing: Optional[DeployedProgram]
    #: Extent the hook will point at once the commit lands.
    code_addr: int
    #: Ordered write set, ``(remote address, payload)``.
    writes: list[tuple[int, bytes]]
    #: ``(remote address, length)`` spans the target CPU may hold stale
    #: lines for -- a reused extent, or a delta's rewritten spans;
    #: flushed after the commit, *before* the hook line.
    flush: list[tuple[int, int]]
    #: True: a fresh allocation this deploy owns -- a failed deploy
    #: frees it.  False: the baseline, borrowed -- a failed deploy may
    #: have half-rewritten it, so it is poisoned instead.
    owned: bool
    #: Version the borrowed baseline shipped as (delta provenance).
    base_version: int = 0
    #: Set by the stage, for the flip: what the descriptor and the
    #: commit CAS name, and the hb transaction tying the body writes to
    #: that CAS (None with hb checking off).
    program: Optional[BpfProgram] = None
    hook_name: str = ""
    hook_addr: int = 0
    image: bytes = b""
    slot: Optional[int] = None
    version: int = 1
    note: Optional[dict] = None
    report: Optional[DeployReport] = None
    span: Optional[Span] = None
    #: The commit CAS's answer, and the error of a chain torn after it;
    #: None until the CAS ran (it rides the stage's chain in one
    #: install, else the flip posts it).
    prior: Optional[int] = None
    torn: Optional[BaseException] = None
    #: What the settle records, fixed before the next grant can move
    #: it: the link's (arch, GOT fingerprint) layout, taken at stage
    #: time, and the tenant label its caller gives (install lock or
    #: broadcast; "" = unowned).
    layout: Optional[tuple] = None
    tenant: str = ""

    @property
    def existing_addr(self) -> int:
        """What the commit CAS expects the hook to hold."""
        return self.existing.code_addr if self.existing else 0


def _delta_ranges(old: bytes, new: bytes) -> list[tuple[int, bytes]]:
    """Dirty spans of ``new`` against ``old`` at MTU-chunk granularity.

    One ``(offset, payload)`` entry per RNIC MTU chunk that differs,
    with the payload trimmed to the chunk's dirty span and widened to
    whole cache lines -- the coherence flush that follows operates on
    lines, so sub-line trims save nothing.
    """
    line = params.CACHE_LINE_BYTES
    ranges: list[tuple[int, bytes]] = []
    for base in range(0, len(new), RNIC_MTU_BYTES):
        old_chunk = old[base : base + RNIC_MTU_BYTES]
        new_chunk = new[base : base + RNIC_MTU_BYTES]
        if old_chunk == new_chunk:
            continue
        # The XOR of the two chunks as big-endian integers: its highest
        # set bit is in the first differing byte, its lowest in the last.
        size = len(new_chunk)
        diff = int.from_bytes(old_chunk, "big") ^ int.from_bytes(new_chunk, "big")
        first = size - (diff.bit_length() + 7) // 8
        last = size - 1 - ((diff & -diff).bit_length() - 1) // 8
        lo = first // line * line
        hi = min(size, (last // line + 1) * line)
        ranges.append((base + lo, new_chunk[lo:hi]))
    return ranges


def _fail_span(span: Span, err) -> None:
    if not span.finished:
        span.status = "error"
        span.finish(error=str(err))


class CodeFlow:
    """Handle bound to one remote sandbox (rdx_create_codeflow result)."""

    def __init__(
        self,
        control_plane: "RdxControlPlane",
        sandbox: Sandbox,
        sync: RemoteSync,
        helper_addresses: dict[str, int],
    ):
        self.control_plane = control_plane
        self.sim = control_plane.sim
        self.obs = telemetry_of(self.sim)
        self.config = params.config_of(self.sim)
        #: The install schedule this handle's deploys run under.
        self.schedule = self.config.schedule
        self.sandbox = sandbox
        self.sync = sync
        manifest = sandbox.ctx_manifest
        if manifest is None:
            raise DeployError(f"{sandbox.name}: ctx_register has not run")
        self.manifest = manifest
        self.scratchpad = RemoteScratchpad(
            manifest.scratchpad_addr,
            manifest.scratchpad_bytes,
            manifest.meta_xstate_slots,
        )
        self.code_allocator = RegionAllocator(
            manifest.code_addr, manifest.code_bytes, label=f"{sandbox.name}.rcode"
        )
        self.linker = RemoteLinker(
            helper_addresses, self._map_address_of
        )
        self._metadata_used: set[int] = set()
        self.deployed: dict[str, DeployedProgram] = {}
        #: hook name -> program name currently owning that hook.
        self._hook_owner: dict[str, str] = {}
        self.reports: list[DeployReport] = []
        self._lock_token = 0xC0DE_0000 + sandbox.sandbox_id
        #: True when the last :meth:`link_code` was served from the
        #: artifact store (a link-stage hit or a pin) -- one of the two
        #: ways a deploy's layout is certified and it skips the stub
        #: rendezvous (:meth:`_layout_matches` is the other).
        self._last_link_cached = False
        #: The link-stage key of the last :meth:`link_code` -- its
        #: ``(arch, fingerprint)`` tail is what certifies a delta
        #: deploy's layout assumption.  None when uncacheable.
        self._last_link_key: Optional[tuple] = None
        #: Extents retired by the previous generation, freed only once
        #: the *next* commit CAS is visible (no in-flight exec can
        #: still be decoding them by then) -- or, for the image a
        #: rollback flipped away from, once that flip is
        #: (:meth:`free_retired`).
        self._retired: list[int] = []
        #: The flush-and-record process of the last flip that settles in
        #: its own process (:meth:`flip_prog`): the next stage joins it
        #: before it reads hook-owner state.
        self._settling = None
        #: The deployment epoch this handle writes under (fencing token);
        #: set by :meth:`stamp_epoch` during rdx_create_codeflow.
        self.epoch = 0
        self.closed = False
        #: CPU pool that pays deploy dispatch cost.  None means the
        #: control plane's own cores; a tree-broadcast relay points it
        #: at the relaying sandbox's host while the relayed leg runs,
        #: so rack-scale fan-out does not serialize on one host's CPU.
        self.dispatch_cpu = None
        #: ((local verbs ctx, local qp), (target verbs ctx, target qp)),
        #: populated by the control plane for teardown.
        self._qp_pair: tuple = ()

    # -- deployment epochs (fencing) ------------------------------------------

    def _read_remote_epoch(self) -> Generator:
        raw = yield from self.sync.read(self.sandbox.epoch_addr, 8)
        return int.from_bytes(raw, "little")

    def stamp_epoch(self, epoch: int) -> Generator:
        """Install ``epoch`` as the target's fencing word.

        Epochs only move forward: if the target already carries a newer
        one, another control-plane incarnation owns it and this writer
        must stand down (:class:`StaleEpochError`) -- the CAS makes the
        read-check-write race-free against a concurrent claimant.
        """
        current = yield from self._read_remote_epoch()
        if current > epoch:
            self._fenced(current)
        if current != epoch:
            prior = yield from self.sync.cas(
                self.sandbox.epoch_addr, current, epoch
            )
            if prior != current:
                self._fenced(prior)
            self.sync.hb_epoch = epoch
            yield from self.sync.flush_chained(
                [(self.sandbox.epoch_addr, 8)], chained=False
            )
        self.epoch = epoch
        self.sync.hb_epoch = epoch

    def check_fence(self) -> Generator:
        """Refuse to mutate a target whose epoch has moved past ours.

        One 8-byte read before any mutating bytes land; this is what
        keeps a stale control plane resuming after a partition from
        overwriting its successor's work.
        """
        current = yield from self._read_remote_epoch()
        if current > self.epoch:
            self._fenced(current)

    def _fenced(self, remote_epoch: int) -> None:
        self.obs.counter(
            "rdx.epoch.fenced",
            target=self.obs.target_label(
                self.sandbox.name, self.control_plane.shard
            ),
        ).inc()
        raise StaleEpochError(
            f"{self.sandbox.name}: target epoch {remote_epoch} supersedes "
            f"ours ({self.epoch}); this control plane has been fenced"
        )

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Release the QP pair backing this handle (local teardown)."""
        if self.closed:
            return
        for ctx, qp in self._qp_pair:
            ctx.destroy_qp(qp)
        self.closed = True

    def _map_address_of(self, name: str) -> Optional[int]:
        handle = self.scratchpad.by_name(name)
        if handle is not None:
            return handle.data_addr
        # Fall back to maps the sandbox exported in its boot-time GOT.
        symbol = self.sandbox.got.lookup(name)
        if symbol is not None:
            return symbol.address
        return None

    # -- rdx_link_code -------------------------------------------------------

    def link_code(
        self, binary: JitBinary, parent_span: Optional[Span] = None
    ) -> Generator:
        """Link ``binary`` against this target; returns the linked image.

        With the schedule's ``reuse`` the artifact store's link stage,
        keyed by (code CRC, arch, GOT-layout fingerprint), skips the
        per-relocation rewriting when this target resolves every symbol
        to the same addresses a previous link did.  The fingerprint
        covers the *resolved addresses*, not just the symbol names --
        layout churn (e.g. address reuse after a warm reboot) must miss
        rather than serve a stale image.
        """
        self._last_link_cached = False
        plane = self.control_plane
        store = plane.artifacts
        with self.obs.span("rdx.link", parent=parent_span, target=self.sandbox.name):
            key = store.link_key(self, binary) if self.schedule.reuse else None
            self._last_link_key = key
            if key is not None:
                cached = store.linked_image(key)
                if cached is not None:
                    yield from plane.host.cpu.run(
                        params.RDX_LINK_CACHE_LOOKUP_US
                    )
                    self._last_link_cached = True
                    return cached
            linked, cost_us = self.linker.link(binary)
            yield from plane.host.cpu.run(cost_us)
            if key is not None:
                store.linked.put(key, linked)
        self.obs.histogram("rdx.link.cpu_us").observe(cost_us)
        return linked

    def link_pinned(self, pin) -> JitBinary:
        """Take a pinned image as this deploy's link, certified by its
        link key exactly as a link-stage hit would be."""
        self._last_link_cached = True
        self._last_link_key = pin.link_key
        return pin.linked

    def layout_fingerprint(self, relocs) -> Optional[int]:
        """GOT-layout fingerprint of ``relocs`` against *this* target.

        ``relocs`` is an iterable of ``(RelocKind, symbol)`` pairs; the
        hash covers the *resolved addresses*, so it certifies that a
        fresh link of the same image would produce identical bytes on
        this target -- and naturally changes when layout churns (e.g.
        address reuse after a warm reboot).  Returns ``None`` when a
        symbol does not resolve.  The artifact store's link and pin
        stages key on this, recomputed at every look-up.
        """
        parts = []
        for kind, symbol in relocs:
            if kind is RelocKind.HELPER:
                address = self.linker.helper_addresses.get(symbol)
            else:
                address = self._map_address_of(symbol)
            if address is None:
                return None
            parts.append(f"{kind.value}:{symbol}={address:x}")
        return zlib.crc32(";".join(parts).encode()) & 0xFFFFFFFF

    # -- rdx_deploy_prog ------------------------------------------------------

    def deploy_prog(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        retain_history: bool = True,
        parent_span: Optional[Span] = None,
        delta: bool = True,
        settles: Optional[list] = None,
        tenant: str = "",
    ) -> Generator:
        """One-sided injection of a linked image + metadata + hook flip.

        Returns a :class:`DeployReport`; given a ``settles`` list it
        returns at the commit CAS's answer instead (:meth:`flip_prog`).
        ``tenant`` labels the deploy's metrics ("" = unowned).
        The hook flip is a transactional qword swap followed by a
        cache-coherence event on the hook line.  With
        ``retain_history`` the previous image stays resident as a
        rollback target; without it, its code pages are freed once no
        exec can still be decoding them.

        :meth:`stage_prog` then :meth:`flip_prog`, with the commit CAS
        riding the stage's chain where the schedule chains WRs: one
        install chain.  ``delta=False`` installs the image in full even
        where a delta could ship.  A flip that raises with no answer
        leaves its extent to the reconciler: its CAS may have run.
        """
        plan = yield from self.stage_prog(
            program, linked, hook_name, parent_span, delta, commit=True
        )
        plan.tenant = tenant
        try:
            return (yield from self.flip_prog(plan, retain_history, settles))
        except BaseException as err:
            _fail_span(plan.span, err)
            raise

    def stage_prog(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        parent_span: Optional[Span] = None,
        delta: bool = True,
        tail: tuple = (),
        commit: bool = False,
        posted: Optional[list] = None,
    ) -> Generator:
        """Land an image where no hook points yet; returns the plan
        :meth:`flip_prog` commits.

        The bytes, the descriptor and the flushes of the spans the
        target CPU may hold stale lines for all land here, so a flip
        moves one qword.  ``tail`` is ``(addr, payload)`` control-word
        writes that ride the stage after the descriptor, each flushed
        with the body spans before this returns -- a broadcast's bubble
        flag.  A ``posted`` list gets the plan as its install is posted,
        so a caller knows its tail may have landed even when the stage
        then fails.  ``commit`` chains the commit CAS and the flush
        doorbells too (one install, :meth:`deploy_prog`) where the
        schedule chains WRs; the flip then only flushes.
        """
        if not linked.is_linked:
            raise DeployError(f"{program.name}: image has unresolved relocations")
        report = DeployReport(
            deploy_id=next(self.sim.ids.deploy),
            program_name=program.name,
            started_us=self.sim.now,
        )
        span = self.obs.span(
            "rdx.deploy", parent=parent_span,
            program=program.name, target=self.sandbox.name, hook=hook_name,
        )
        try:
            plan = yield from self._traced(
                span, self.sync,
                self._stage(
                    program, linked, hook_name, report, delta, tail, commit,
                    posted,
                ),
            )
        except BaseException as err:
            _fail_span(span, err)
            raise
        plan.span = span
        return plan

    def flip_prog(
        self,
        plan: "_DeployPlan",
        retain_history: bool = True,
        settles: Optional[list] = None,
    ) -> Generator:
        """Point the hook at a staged image with :meth:`commit_hook`,
        the CAS's answer kept on the plan; returns its report.

        A CAS that answered with the wrong prior unwinds the stage.  A
        flip that raises a :class:`ReproError` before its CAS ran
        (``plan.prior`` still None) may be posted again, or abandoned
        with :meth:`unstage`.  ``settles=None`` waits for the flush of
        the plan's spans and the hook line (:meth:`_settle`); a list
        gets the spawned flush-and-record process instead, whose value
        is the report, and the handle's next stage joins it.
        """
        mark = self.sim.now
        commit = self.commit_hook(
            plan.hook_name, plan.existing_addr, plan.code_addr, plan,
            visible=False,
        )
        try:
            yield from self._traced(plan.span, self.sync, commit)
        except BaseException as err:
            if isinstance(err, DeployError):  # the CAS's prior was wrong
                self._unwind(plan)
            if not (isinstance(err, ReproError) and plan.prior is None):
                _fail_span(plan.span, err)
            raise
        plan.report.commit_us = self.sim.now - mark
        # The flush rides the QP the flip did, also when spawned: a relay
        # hands ``self.sync`` back the moment the flip returns.
        sync = self.sync
        settle = self._traced(
            plan.span, sync, self._settle(plan, retain_history, sync)
        )
        if settles is None:
            return (yield from settle)
        self._settling = self.sim.spawn(
            settle, name=f"settle:{self.sandbox.name}"
        )
        settles.append(self._settling)
        return None

    def unstage(self, plan: "_DeployPlan") -> None:
        """Give back a staged plan no flip will commit."""
        self._unwind(plan)
        _fail_span(plan.span, "unstaged")

    def _traced(self, span: Span, sync: RemoteSync, gen: Generator) -> Generator:
        """Run one part of a deploy with its span parked on ``sync``
        (obs on): every WR chain, chunk land, commit CAS and cc flush
        below is recorded under the span's trace id."""
        saved_trace = sync.trace_span
        sync.trace_span = span if self.config.obs else None
        try:
            return (yield from gen)
        finally:
            sync.trace_span = saved_trace

    def _plan(
        self, linked: JitBinary, hook_name: str, delta: bool
    ) -> _DeployPlan:
        """Decide what this deploy moves; costs no simulated time.

        A delta plan is the exception -- only when ``delta`` asks for
        one and the link came with a key (the schedule's ``reuse``) --
        and eligibility is conservative: the hook must already be
        owned by a record
        carrying a registered baseline whose layout fingerprint
        matches the one :meth:`link_code` just produced, the image
        size must be unchanged, and the diff must be under break-even.
        Anything else is a full plan, with the reason counted in
        ``rdx.delta.fallback`` -- correctness never depends on delta
        eligibility.
        """
        existing = self._owner(hook_name)
        image = linked.code
        spans = reason = None
        if delta and self._last_link_key is not None:
            if existing is None:
                reason = "first-deploy"
            elif existing.baseline_addr is None or existing.baseline_image is None:
                reason = "no-baseline"
            elif not self._layout_matches(existing):
                # The link stage could not certify the (arch, GOT
                # fingerprint) layout is unchanged: resolved addresses
                # may have moved, so a byte diff would be meaningless.
                reason = "layout-changed"
            elif len(image) != len(existing.baseline_image):
                reason = "size-changed"
            else:
                spans = _delta_ranges(existing.baseline_image, image)
                if len(spans) > params.RDX_DELTA_MAX_CHUNKS:
                    reason = "past-break-even"
                elif sum(len(payload) for _, payload in spans) >= len(image):
                    reason = "no-savings"
        if reason is not None:
            self.obs.counter("rdx.delta.fallback", reason=reason).inc()
        if spans is None or reason is not None:
            allocator = self.code_allocator
            fresh = allocator.high_water
            code_addr = allocator.alloc(len(image), align=64)
            # An extent below the high-water mark may have run an
            # earlier image, whose lines the target CPU can still
            # cache: the DMA'd image is flushed before the hook.
            flush = [(code_addr, len(image))] if code_addr < fresh else []
            return _DeployPlan(
                existing, code_addr, [(code_addr, image)], flush, owned=True
            )
        # The baseline was live (and executed) two generations ago, so
        # the target CPU may still cache its old lines, and DMA writes
        # leave those snapshots stale: every span written is flushed.
        base = existing.baseline_addr
        plan = _DeployPlan(
            existing, base, [], [], owned=False,
            base_version=existing.baseline_version,
        )
        for offset, payload in spans:
            plan.writes.append((base + offset, payload))
            plan.flush.append((base + offset, len(payload)))
        return plan

    def _owner(self, hook_name: str) -> Optional[DeployedProgram]:
        """The record of the program that owns ``hook_name``, if any."""
        owner_name = self._hook_owner.get(hook_name)
        return self.deployed.get(owner_name) if owner_name else None

    def _layout_matches(self, existing: Optional[DeployedProgram]) -> bool:
        """True when ``existing`` was linked at the (arch, GOT
        fingerprint) layout the last :meth:`link_code` produced.

        A committed deploy records its layout; a rollback, a reboot and
        an adoption leave none, so after any of them this is False until
        a deploy commits again.  It is both a delta plan's layout
        condition and, with ``_last_link_cached``, what lets a deploy
        skip the stub rendezvous.
        """
        key = self._last_link_key
        return (
            existing is not None
            and key is not None
            and existing.layout == key[1:]
        )

    def _stage(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        report: DeployReport,
        delta: bool,
        tail: tuple,
        commit: bool,
        posted: Optional[list],
    ) -> Generator:
        """Fence, dispatch and land one plan's bytes; returns the plan.

        With :meth:`flip_prog` (through :meth:`commit_hook`) and
        :meth:`_settle`, the only code that posts deploy writes and the
        commit CAS -- one sequence, stage -> flip -> settle, whose
        costs the config's :class:`~repro.params.Schedule` picks (the
        serial one is paper-calibrated, fig 4a):

        * the epoch-fence READ runs before the dispatch, or while it
          runs: the initiator CPU preps the chain's WQEs during the
          READ's flight, and nothing is posted until the READ's value
          is back and checked;
        * dispatch costs the schedule's ``dispatch_us`` -- every WQE
          prepared and polled separately, or the whole chain once, the
          flip's WQEs included, so a flip pays no dispatch;
        * a settle still in flight (:meth:`flip_prog`) is joined before
          anything reads the hook owner, the slots or the extents;
        * the stub rendezvous runs unless the layout is certified: the
          linked image hit the layout-fingerprinted cache, or the hook's
          owner was linked at the same layout (:meth:`_layout_matches`)
          -- either way the Meta descriptor + GOT window already match;
        * the writes, the descriptor and ``tail`` go out as one
          :meth:`RemoteSync.install`, a chain or one WR at a time (the
          schedule's depth), whose flushes
          :meth:`RemoteSync.flush_chained` waits for -- with ``commit``
          the install may carry the fenced commit CAS too, and the
          flushes then wait for the flip.
        """
        schedule = self.schedule
        # Dispatch: registry lookup, WQE prep, completion polling --
        # initiator CPU only (the control plane, or a relaying host).
        cpu = self.dispatch_cpu or self.control_plane.host.cpu
        # The fence: no byte may land on a target owned by a newer
        # control-plane epoch.
        if schedule.fence_first:
            yield from self.check_fence()
            mark = self.sim.now
            yield from cpu.run(schedule.dispatch_us)
        else:
            # Fence || dispatch: the WQE prep is local and mutates
            # nothing, so it runs under the READ's flight.  A fenced-out
            # or interrupted deploy cancels it and has claimed nothing.
            mark = self.sim.now
            prep = self.sim.spawn(cpu.run(schedule.dispatch_us), name="dispatch")
            try:
                yield from self.check_fence()
                yield prep
            except BaseException:
                prep.interrupt("deploy abandoned")
                raise
        # The previous flip's settle records the hook owner, the slots
        # and the extents this deploy plans from: the fence and the WQE
        # prep above ran under its flush, nothing below may.
        settling = self._settling
        if settling is not None and settling.is_alive:
            yield settling
        if not (
            self._last_link_cached
            or self._layout_matches(self._owner(hook_name))
        ):
            yield params.RDX_STUB_RENDEZVOUS_US
        report.dispatch_us = self.sim.now - mark

        hook_addr = self._hook_addr(hook_name)
        # Planned as late as costs nothing, so the hook owner it reads
        # is as fresh as local state gets and a deploy that was fenced
        # out above has claimed nothing.
        plan = self._plan(linked, hook_name, delta)
        existing = plan.existing
        plan.program, plan.hook_name, plan.hook_addr = program, hook_name, hook_addr
        plan.image, plan.report = linked.code, report
        plan.version = existing.version + 1 if existing else 1
        key = self._last_link_key
        plan.layout = key[1:] if key else None
        try:
            plan.slot = self._pick_metadata_slot()
            block = MetadataBlock(
                state=SLOT_LIVE,
                prog_id=program.prog_id,
                insn_cnt=len(program.insns),
                ref_count=1,
                code_addr=plan.code_addr,
                code_len=len(plan.image),
                hook_slot=self.manifest.hook_layout.get(hook_name, -1),
                version=plan.version,
                tag=program.tag().encode()[:16],
                name=program.name,
            )
            # One hb transaction ties the writes to their commit CAS:
            # the race checker requires the commit to be HB-after
            # every write carrying the same txn id.  It publishes the
            # whole extent the flipped pointer makes reachable, not
            # just the spans written.
            if self.config.hb_check:
                plan.note = hb.txn_note(
                    self.sim, publishes=(plan.code_addr, len(plan.image))
                )
            ops = plan.writes + [
                (self.manifest.metadata_addr + plan.slot * 256, block.encode())
            ]
            mark = self.sim.now
            if posted is not None:
                posted.append(plan)
            flush = plan.flush + [(addr, len(payload)) for addr, payload in tail]
            plan.prior, plan.torn = yield from self.sync.install(
                ops, hook_addr if commit else None, plan.existing_addr,
                plan.code_addr, flush + [(hook_addr, 8)] if commit else flush,
                note=plan.note, tail=tail,
            )
            report.write_us = self.sim.now - mark
        except BaseException as err:
            # An install raises a ReproError only when its CAS never
            # ran; anything else (an interrupt) may leave it in flight.
            if isinstance(err, ReproError):
                self._unwind(plan)
            raise
        if not commit:
            mark = self.sim.now
            yield from self.sync.flush_chained(flush)
            report.cc_us = self.sim.now - mark
            plan.flush = []  # landed: the flip flushes the hook line only
        return plan

    def _settle(
        self, plan: _DeployPlan, retain_history: bool, sync: RemoteSync
    ) -> Generator:
        """Flush what the flip made reachable -- the plan's spans first,
        the hook line last -- over ``sync``, then record; returns the
        report."""
        report = plan.report
        mark = self.sim.now
        yield from sync.flush_chained(plan.flush + [(plan.hook_addr, 8)])
        report.cc_us += self.sim.now - mark
        self._bookkeep(plan, retain_history)
        plan.span.finish(total_us=report.total_us, code_addr=report.code_addr)
        self._observe_deploy(report, plan.tenant)
        report.total_us += report.link_us  # a link that ran before the stage
        return report

    # -- the hook commit ------------------------------------------------------

    def commit_hook(
        self,
        hook_name: str,
        expect: int,
        new: int,
        plan: Optional[_DeployPlan] = None,
        visible: bool = True,
    ) -> Generator:
        """Move a hook qword from ``expect`` to ``new`` and make the move
        visible: Table 1's ``rdx_tx``, then ``rdx_cc_event`` on the hook
        line.  The one writer of a hook word -- a deploy's flip,
        :meth:`detach`, :meth:`rollback`, the reconciler's rehook and
        unhook -- each of which fences before calling it.

        The commit is one :meth:`RemoteSync.install` of the CAS alone:
        a 2-WR chain of the fenced CAS and the hook line's doorbell, or
        at depth 1 the CAS alone.  A wrong prior raises
        :class:`DeployError` naming both values; a chain torn after its
        CAS re-raises its error -- committed, so the reconciler
        finishes the flush.  An exception from the post leaves no
        answer: a chain's CAS never ran; a lone CAS may have run and
        lost its ACK.

        ``plan`` is the deploy this commit publishes: its hb note rides
        the CAS, and the answer is kept on it -- or read from it, when
        the CAS rode the stage's install chain.  ``visible=False``
        leaves the flush to the caller (:meth:`_settle` flushes a
        deploy's spans with the hook line).
        """
        hook_addr = self._hook_addr(hook_name)
        prior, torn, note = (None, None, None) if plan is None else (
            plan.prior, plan.torn, plan.note
        )
        if prior is None:
            prior, torn = yield from self.sync.install(
                [], hook_addr, expect, new, [(hook_addr, 8)], note=note
            )
            if plan is not None:
                plan.prior, plan.torn = prior, torn
        if prior != expect:
            raise DeployError(
                f"{self.sandbox.name}: hook {hook_name!r} CAS expected "
                f"{expect:#x}, found {prior:#x} (concurrent update?)"
            )
        if torn is not None:
            raise torn
        if visible:
            yield from self.sync.flush_chained([(hook_addr, 8)])

    def _unwind(self, plan: _DeployPlan) -> None:
        """Give back what a deploy claimed before its commit failed.

        Both the extent *and* the metadata slot go back -- a slot
        leaked per CAS conflict exhausts the descriptor array under
        repeated contention.  A borrowed baseline may now hold a
        half-rewritten image, so it can never serve as a diff base (or
        rollback target) again: the registration is dropped and the
        extent retired.  Nothing points at it -- the hook never
        flipped -- so the deferred free is purely conservative.
        """
        self._metadata_used.discard(plan.slot)
        if plan.owned:
            self.code_allocator.free(plan.code_addr)
            return
        existing = plan.existing
        self._retired.append(plan.code_addr)
        existing.history = [
            addr for addr in existing.history if addr != plan.code_addr
        ]
        existing.baseline_addr = None
        existing.baseline_image = None
        existing.baseline_version = 0

    def _bookkeep(self, plan: _DeployPlan, retain_history: bool) -> None:
        """Post-commit record keeping: books, baseline roles, report."""
        self.free_retired()
        program, hook_name, image = plan.program, plan.hook_name, plan.image
        report = plan.report
        existing = plan.existing
        code_addr = plan.code_addr
        record = DeployedProgram(
            program=program,
            hook_name=hook_name,
            code_addr=code_addr,
            code_len=len(image),
            metadata_slot=plan.slot,
            version=plan.version,
            image=image,
            layout=plan.layout,
        )
        if existing:
            # The superseded descriptor slot is reusable either way.
            self._metadata_used.discard(existing.metadata_slot)
            if not plan.owned:
                # Ping-pong: the new image went *into* the old baseline
                # extent, and the superseded live extent becomes the
                # next baseline.  The consumed baseline leaves the
                # rollback history -- it holds live bytes now -- so
                # delta chains cap rollback depth at one generation.
                record.history = [
                    addr for addr in existing.history if addr != code_addr
                ]
                if retain_history:
                    record.history.append(existing.code_addr)
                record.baseline_addr = existing.code_addr
                record.baseline_image = existing.image
                record.baseline_version = existing.version
            else:
                if retain_history:
                    record.history = existing.history + [existing.code_addr]
                else:
                    record.history = list(existing.history)
                if existing.image is not None:
                    # The superseded extent stays resident as the delta
                    # baseline: its exact bytes are known, so the next
                    # deploy of this layout can ship only the changed
                    # chunks.
                    record.baseline_addr = existing.code_addr
                    record.baseline_image = existing.image
                    record.baseline_version = existing.version
                elif not retain_history:
                    # No known bytes and no history reference: the
                    # extent is garbage, but in-flight execs may still
                    # be reading it, so the free is deferred until the
                    # next commit CAS is visible.
                    self._retired.append(existing.code_addr)
            # The previous baseline is superseded unless something
            # still references it (the new baseline, the live extent,
            # or a rollback target).
            old_baseline = existing.baseline_addr
            if (
                old_baseline is not None
                and old_baseline != record.baseline_addr
                and old_baseline != record.code_addr
                and old_baseline not in record.history
            ):
                self._retired.append(old_baseline)
            if existing.program.name != program.name:
                del self.deployed[existing.program.name]
        self.deployed[program.name] = record
        self._hook_owner[hook_name] = program.name
        report.total_us = self.sim.now - report.started_us
        report.code_addr = code_addr
        # What crossed the wire: the write set + the 256-byte descriptor.
        report.bytes_moved = 256
        for _, payload in plan.writes:
            report.bytes_moved += len(payload)
        if not plan.owned:
            report.mode = "delta"
            report.delta_chunks = len(plan.writes)
            report.delta_base_version = plan.base_version
        self.reports.append(report)
        self.control_plane.trace.record(
            self.sim.now,
            "rdx.deploy.done",
            program=program.name,
            target=self.sandbox.name,
            total_us=report.total_us,
        )

    def free_retired(self) -> None:
        """Free the retired extents, once a hook flip and its flush are
        visible: every exec that could still have been decoding one of
        them has retired by then.  Frees drain here (a commit, a
        rollback), never at retire time."""
        for addr in self._retired:
            if self.code_allocator.size_of(addr) is not None:
                self.code_allocator.free(addr)
        self._retired.clear()

    def _observe_deploy(self, report: DeployReport, tenant: str) -> None:
        """Feed one successful deploy of ``tenant`` into the metrics
        registry."""
        self.obs.counter("rdx.deploy.count").inc()
        self.obs.counter("rdx.deploy.bytes_written").inc(report.bytes_moved)
        if report.mode == "delta":
            self.obs.counter("rdx.deploy.delta").inc()
            self.obs.histogram("rdx.delta.chunks").observe(
                report.delta_chunks
            )
            self.obs.histogram("rdx.delta.bytes_moved").observe(
                report.bytes_moved
            )
        for phase, value in report.phases().items():
            if phase == "link":
                continue  # linking is measured by its own rdx.link span
            self.obs.histogram(f"rdx.deploy.{phase}_us").observe(value)
        # Install-visible latency, exported per target and per tenant:
        # total_us ends after the cc flush, i.e. when a data-path read
        # can first observe the new pointer.
        self.obs.histogram(
            "rdx.deploy.install_visible_us",
            target=self.obs.target_label(
                self.sandbox.name, self.control_plane.shard
            ),
            tenant=tenant,
        ).observe(report.total_us)
        self.obs.histogram(
            "rdx.tenant.install_visible_us", tenant=tenant
        ).observe(report.total_us)

    def _pick_metadata_slot(self) -> int:
        for index in range(self.manifest.metadata_slots):
            if index not in self._metadata_used:
                self._metadata_used.add(index)
                return index
        raise DeployError(f"{self.sandbox.name}: metadata array full")

    def _hook_addr(self, hook_name: str) -> int:
        try:
            slot = self.manifest.hook_layout[hook_name]
        except KeyError:
            raise DeployError(
                f"{self.sandbox.name} has no hook {hook_name!r}"
            ) from None
        return self.manifest.hook_table_addr + slot * 8

    # -- detach / rollback -----------------------------------------------------

    def detach(self, program_name: str) -> Generator:
        """Remove the extension: hook -> 0, metadata -> detached."""
        record = self._record(program_name)
        yield from self.check_fence()
        with self.control_plane.intent(
            "detach", target=self.sandbox.name, name=program_name
        ):
            yield from self._detach_body(program_name, record)

    def _detach_body(
        self, program_name: str, record: DeployedProgram
    ) -> Generator:
        yield from self.commit_hook(record.hook_name, record.code_addr, 0)
        state_addr = self.manifest.metadata_addr + record.metadata_slot * 256
        yield from self.sync.write(
            state_addr, SLOT_DETACHED.to_bytes(4, "little")
        )
        self.code_allocator.free(record.code_addr)
        if (
            record.baseline_addr is not None
            and record.baseline_addr != record.code_addr
            and record.baseline_addr not in record.history
            and self.code_allocator.size_of(record.baseline_addr) is not None
        ):
            self.code_allocator.free(record.baseline_addr)
        self._metadata_used.discard(record.metadata_slot)
        if self._hook_owner.get(record.hook_name) == program_name:
            del self._hook_owner[record.hook_name]
        del self.deployed[program_name]

    def rollback(self, program_name: str) -> Generator:
        """Point the hook back at the newest retained image (§4).

        The control plane keeps superseded images resident, so a
        rollback is the epoch-fence READ and one :meth:`commit_hook`:
        microseconds, no target CPU, whatever the target's load.  The
        image rolled away from leaves the rollback chain, so repeated
        rollbacks walk backwards, and it is freed once the hook flush
        is visible, like a detached one (a full deploy reusing the
        extent flushes it, :meth:`_plan`).  Raises
        :class:`DeployError` when no previous version is resident.
        Returns the :class:`RollbackRecord`.
        """
        record = self._record(program_name)
        if not record.history:
            raise DeployError(f"{program_name!r} has no previous version")
        started = self.sim.now
        yield from self.check_fence()
        from_addr, to_addr = record.code_addr, record.history[-1]
        yield from self.commit_hook(record.hook_name, from_addr, to_addr)
        # The record no longer knows the live extent's exact bytes, so
        # the delta chain breaks: a baseline neither the hook nor the
        # history still names is retired with the image rolled away from.
        if record.baseline_addr not in (None, *record.history):
            self._retired.append(record.baseline_addr)
        self._retired.append(from_addr)
        self.free_retired()
        record.history.pop()
        record.code_addr = to_addr
        record.version += 1
        record.image = record.layout = None
        record.baseline_addr = record.baseline_image = None
        record.baseline_version = 0
        return RollbackRecord(
            program_name=program_name,
            target=self.sandbox.name,
            from_addr=from_addr,
            to_addr=to_addr,
            duration_us=self.sim.now - started,
        )

    def _record(self, program_name: str) -> DeployedProgram:
        record = self.deployed.get(program_name)
        if record is None:
            raise DeployError(f"{program_name!r} is not deployed")
        return record

    # -- recovery support (reconciler) -------------------------------------------

    def reset_after_reboot(self) -> None:
        """Forget all per-target records after the sandbox warm-rebooted.

        The target wiped its volatile control surface, so every record
        this handle holds describes unreachable bytes.  Allocators and
        the scratchpad mirror start over; the epoch drops to 0 so the
        next :meth:`stamp_epoch` re-fences the target.
        """
        manifest = self.manifest
        self.scratchpad = RemoteScratchpad(
            manifest.scratchpad_addr,
            manifest.scratchpad_bytes,
            manifest.meta_xstate_slots,
        )
        self.code_allocator = RegionAllocator(
            manifest.code_addr, manifest.code_bytes,
            label=f"{self.sandbox.name}.rcode",
        )
        self._metadata_used.clear()
        self.deployed.clear()
        self._hook_owner.clear()
        # Retired addresses and the last link key describe the wiped
        # address space -- both are meaningless now.
        self._retired.clear()
        self._last_link_key = None
        self.epoch = 0
        self.sync.hb_epoch = None  # unknown until the next stamp_epoch

    def adopt(
        self,
        program: BpfProgram,
        hook_name: str,
        slot: int,
        block: MetadataBlock,
        image: Optional[bytes] = None,
    ) -> DeployedProgram:
        """Adopt a live remote deployment into this handle's books.

        A restarted control plane's fresh CodeFlow starts with empty
        records while the target still runs images a previous
        incarnation deployed.  Adoption reconstructs the
        :class:`DeployedProgram` record -- reserving the code pages in
        place -- so ordinary deploy/detach CAS expectations line up
        with remote reality again.  ``image`` is the CRC-verified
        bytes the reconciler read back: recording them lets the first
        post-recovery full deploy register this extent as a delta
        baseline (the deploy itself still ships full -- the adopted
        record carries no layout fingerprint).
        """
        self.code_allocator.reserve(block.code_addr, block.code_len)
        self._metadata_used.add(slot)
        record = DeployedProgram(
            program=program,
            hook_name=hook_name,
            code_addr=block.code_addr,
            code_len=block.code_len,
            metadata_slot=slot,
            version=block.version,
            image=image,
        )
        self.deployed[program.name] = record
        if hook_name:
            self._hook_owner[hook_name] = program.name
        return record

    # -- rdx_deploy_xstate (§3.4) -------------------------------------------------

    def deploy_xstate(
        self, spec: XStateSpec, initial: Optional[BpfMap] = None
    ) -> Generator:
        """Allocate + inject one XState; returns an :class:`XStateHandle`.

        Steps (paper §3.4): (1) allocate a chunk from the scratchpad,
        (2) write the self-describing header + initial image, (3) write
        the Meta-XState index entry, then flush so the data path can
        adopt the new state immediately.
        """
        from repro.core.journal import xstate_spec_detail

        yield from self.check_fence()
        with self.control_plane.intent(
            "xstate", target=self.sandbox.name, spec=xstate_spec_detail(spec)
        ) as txn:
            handle = self.scratchpad.allocate(spec)
            if initial is None:
                initial = BpfMap(
                    spec.map_type, spec.key_size, spec.value_size,
                    spec.max_entries, name=spec.name,
                )
            image = initial.serialize()
            if len(image) != spec.data_bytes():
                self.scratchpad.release(handle)
                raise XStateError(
                    f"{spec.name}: initial image is {len(image)} bytes, "
                    f"spec wants {spec.data_bytes()}"
                )
            header = handle.header_addr
            body = encode_xstate_header(spec) + image
            meta_addr = self.scratchpad.meta_entry_addr(handle.meta_index)
            # The data path adopts the map by its header, never through
            # the meta slot: the header span is the flush it waits for.
            flush = [(header, params.XSTATE_HEADER_BYTES)]
            note = None
            if self.config.hb_check:
                note = hb.txn_note(self.sim, publishes=(header, len(body)))
            with self.obs.span(
                "rdx.xstate.deploy", xstate=spec.name, target=self.sandbox.name
            ):
                # The deploy shape: header + image, then the meta slot's
                # commit CAS from 0 (at depth 1 an install of its own).
                prior, torn = yield from self.sync.install(
                    [(header, body)], meta_addr, 0, header, flush, note=note
                )
                if prior is None:
                    prior, torn = yield from self.sync.install(
                        [], meta_addr, 0, header, [], note=note
                    )
                if prior != 0:
                    self.scratchpad.release(handle)
                    raise XStateError(
                        f"{spec.name}: meta slot {handle.meta_index} already taken"
                    )
                if torn is not None:
                    raise torn
                yield from self.sync.flush_chained(flush)
            self.obs.counter("rdx.xstate.bytes_written").inc(
                params.XSTATE_HEADER_BYTES + len(image)
            )
            # Placement rides along in the COMMIT record so a restarted
            # control plane can adopt the chunk where it already lives.
            txn.detail["spec"] = dict(
                txn.detail["spec"], meta_index=handle.meta_index,
                header_addr=handle.header_addr,
            )
        return handle

    def destroy_xstate(self, handle: XStateHandle) -> Generator:
        """Clear the meta entry and free the chunk."""
        yield from self.check_fence()
        with self.control_plane.intent(
            "xstate_destroy", target=self.sandbox.name, name=handle.name
        ):
            meta_addr = self.scratchpad.meta_entry_addr(handle.meta_index)
            prior = yield from self.sync.cas(meta_addr, handle.header_addr, 0)
            if prior != handle.header_addr:
                raise XStateError(
                    f"{handle.name}: meta entry changed underneath us"
                )
            # Poison the header magic so stale pointers cannot re-adopt it.
            flush = [(handle.header_addr, params.XSTATE_HEADER_BYTES)]
            yield from self.sync.install(
                [(handle.header_addr, b"\x00")], None, 0, 0, flush
            )
            yield from self.sync.flush_chained(flush)
            self.scratchpad.release(handle)

    # -- XState access (inspector APIs) ---------------------------------------------

    def xstate_lookup(self, handle: XStateHandle, key: bytes) -> Generator:
        """Remote map lookup via one-sided READs (no target CPU)."""
        spec = handle.spec
        image = yield from self.read_raw(handle.data_addr, spec.data_bytes())
        rebuilt = BpfMap.deserialize(
            image, spec.map_type, spec.key_size, spec.value_size,
            spec.max_entries, name=spec.name,
        )
        return rebuilt.lookup(key)

    def xstate_update(
        self, handle: XStateHandle, key: bytes, value: bytes
    ) -> Generator:
        """Remote map update: locate the slot, then write it in place."""
        spec = handle.spec
        if len(key) != spec.key_size or len(value) != spec.value_size:
            raise XStateError(f"{handle.name}: bad key/value geometry")
        yield from self.check_fence()
        slot_bytes = spec.slot_bytes()
        image = yield from self.read_raw(handle.data_addr, spec.data_bytes())
        target_slot = None
        free_slot = None
        for index in range(spec.max_entries):
            chunk = image[index * slot_bytes : (index + 1) * slot_bytes]
            if chunk[0] and chunk[8 : 8 + spec.key_size] == key:
                target_slot = index
                break
            if not chunk[0] and free_slot is None:
                free_slot = index
        if target_slot is None:
            target_slot = free_slot
        if target_slot is None:
            raise XStateError(f"{handle.name}: map full")
        slot_addr = handle.data_addr + target_slot * slot_bytes
        payload = b"\x01" + bytes(7) + key + value
        flush = [(slot_addr, len(payload))]
        yield from self.sync.install([(slot_addr, payload)], None, 0, 0, flush)
        yield from self.sync.flush_chained(flush)

    def read_raw(self, addr: int, length: int) -> Generator:
        """One-sided READ helper."""
        data = yield from self.sync.read(addr, length)
        return data

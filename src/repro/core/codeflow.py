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
    #: part of the link-stage key a delta deploy must match.
    layout: Optional[tuple] = None
    #: Superseded-but-resident extent kept alive as the delta diff
    #: base (None when no baseline is registered).
    baseline_addr: Optional[int] = None
    #: Exact bytes resident at ``baseline_addr``.
    baseline_image: Optional[bytes] = None
    #: Version the baseline image shipped as (delta provenance).
    baseline_version: int = 0


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
        dirty = [
            index
            for index in range(len(new_chunk))
            if new_chunk[index] != old_chunk[index]
        ]
        lo = dirty[0] // line * line
        hi = min(len(new_chunk), (dirty[-1] // line + 1) * line)
        ranges.append((base + lo, new_chunk[lo:hi]))
    return ranges


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
        #: Tenant label stamped on this target's deploy metrics and
        #: trace roots (multi-tenant aggregation; "" = unowned).
        self.tenant = ""
        #: True when the last :meth:`link_code` was served from the
        #: artifact store (a link-stage hit or a pin) -- the pipelined
        #: deploy then skips the stub rendezvous (the layout is known).
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
            yield from self.sync.cc_event(self.sandbox.epoch_addr, 8)
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

        In the pipelined arm the artifact store's link stage, keyed by
        (code CRC, arch, GOT-layout fingerprint), skips the
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
            key = (
                store.link_key(self, binary)
                if self.config.pipelined_deploy
                else None
            )
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
        fenced: bool = False,
    ) -> Generator:
        """One-sided injection of a linked image + metadata + hook flip.

        Returns a :class:`DeployReport`.  The hook flip is a
        transactional qword swap followed by a cache-coherence event on
        the hook line.  With ``retain_history`` the previous image
        stays resident as a rollback target; without it, its code
        pages are freed once no exec can still be decoding them.

        ``fenced`` certifies the caller already ran :meth:`check_fence`
        for this operation (a broadcast leg fences when its bubble
        rises); the pipelined arm then skips the duplicate epoch read
        -- one fence per transaction, not one per op.  Otherwise the
        pipelined arm's fence overlaps the dispatch, so
        ``report.dispatch_us`` spans both.
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
        # Trace context rides the sync layer for the deploy's duration
        # (obs on): every WR chain, chunk land, commit CAS, and cc
        # flush below is recorded under this span's trace id.
        saved_trace = self.sync.trace_span
        self.sync.trace_span = span if self.config.obs else None
        try:
            yield from self._execute(
                program, linked, hook_name, retain_history, report, fenced
            )
        except BaseException as err:
            span.status = "error"
            span.finish(error=str(err))
            raise
        finally:
            self.sync.trace_span = saved_trace
        span.finish(total_us=report.total_us, code_addr=report.code_addr)
        self._observe_deploy(report)
        return report

    def _plan(self, linked: JitBinary, hook_name: str) -> _DeployPlan:
        """Decide what this deploy moves; costs no simulated time.

        A delta plan is the exception and eligibility is conservative:
        the hook must already be owned by a record carrying a
        registered baseline whose layout fingerprint matches the one
        :meth:`link_code` just produced, the image size must be
        unchanged, and the diff must be under break-even.  Anything
        else is a full plan, with the reason counted in
        ``rdx.delta.fallback`` -- correctness never depends on delta
        eligibility.
        """
        owner_name = self._hook_owner.get(hook_name)
        existing = self.deployed.get(owner_name) if owner_name else None
        image = linked.code
        key = self._last_link_key
        spans = reason = None
        if self.config.pipelined_deploy and self.config.delta_deploy:
            if existing is None:
                reason = "first-deploy"
            elif existing.baseline_addr is None or existing.baseline_image is None:
                reason = "no-baseline"
            elif (
                key is None
                or existing.layout is None
                or existing.layout != key[1:]
            ):
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

    def _execute(
        self,
        program: BpfProgram,
        linked: JitBinary,
        hook_name: str,
        retain_history: bool,
        report: DeployReport,
        fenced: bool,
    ) -> Generator:
        """Ship one plan: fence, dispatch, install, flush, record.

        The only function that posts deploy writes and the commit CAS.
        ``config.pipelined_deploy`` picks the cost of each step, not a
        different sequence; the serial arm is the paper-calibrated one
        (fig 4a):

        * the epoch-fence READ runs before the dispatch, or while it
          runs: the initiator CPU preps the chain's WQEs during the
          READ's flight, and nothing is posted until the READ's value
          is back and checked;
        * dispatch prepares and polls every WQE separately
          (:data:`~repro.params.RDX_DISPATCH_US`) or once for the
          whole chain (:data:`~repro.params.RDX_DISPATCH_FAST_US`);
        * the stub rendezvous always runs, or only when the linked
          image missed the layout-fingerprinted cache -- a hit
          certifies the Meta descriptor + GOT window already match;
        * the install is a signaled WR per write, ``rdx_tx`` and a
          blocking ``cc_event`` per flush span; or ONE chain of the
          writes, the descriptor, the fenced commit CAS and a doorbell
          per flush span (:meth:`RemoteSync.install`), whose effects
          :meth:`RemoteSync.flush_chained` waits for once.

        The CAS commits the bytes, not their remote *CPU* visibility:
        the plan's spans are flushed first and the hook line last.
        """
        pipelined = self.config.pipelined_deploy
        # Dispatch: registry lookup, WQE prep, completion polling --
        # initiator CPU only (the control plane, or a relaying host).
        cpu = self.dispatch_cpu or self.control_plane.host.cpu
        cost_us = params.RDX_DISPATCH_FAST_US if pipelined else params.RDX_DISPATCH_US
        # The fence: no byte may land on a target owned by a newer
        # control-plane epoch.  Fencing is advisory at op start either
        # way, so a caller that fenced this transaction moments ago
        # need not pay again; the serial arm always does, first.
        if not pipelined:
            yield from self.check_fence()
        mark = self.sim.now
        if fenced or not pipelined:
            yield from cpu.run(cost_us)
        else:
            # Fence || dispatch: the WQE prep is local and mutates
            # nothing, so it runs under the READ's flight.  A fenced-out
            # or interrupted deploy cancels it and has claimed nothing.
            prep = self.sim.spawn(cpu.run(cost_us), name="dispatch")
            try:
                yield from self.check_fence()
                yield prep
            except BaseException:
                prep.interrupt("deploy abandoned")
                raise
        if not (pipelined and self._last_link_cached):
            yield params.RDX_STUB_RENDEZVOUS_US
        report.dispatch_us = self.sim.now - mark

        hook_addr = self._hook_addr(hook_name)
        # Planned as late as costs nothing, so the hook owner it reads
        # is as fresh as local state gets and a deploy that was fenced
        # out above has claimed nothing.
        plan = self._plan(linked, hook_name)
        existing = plan.existing
        expected = existing.code_addr if existing else 0
        image = linked.code
        slot = None
        try:
            slot = self._pick_metadata_slot()
            block = MetadataBlock(
                state=SLOT_LIVE,
                prog_id=program.prog_id,
                insn_cnt=len(program.insns),
                ref_count=1,
                code_addr=plan.code_addr,
                code_len=len(image),
                hook_slot=self.manifest.hook_layout.get(hook_name, -1),
                version=existing.version + 1 if existing else 1,
                tag=program.tag().encode()[:16],
                name=program.name,
            )
            # One hb transaction ties the writes to their commit CAS:
            # the race checker requires the commit to be HB-after
            # every write carrying the same txn id.  It publishes the
            # whole extent the flipped pointer makes reachable, not
            # just the spans written.
            txn = None
            if self.config.hb_check:
                txn = hb.txn_note(self.sim, publishes=(plan.code_addr, len(image)))
            ops = plan.writes + [
                (self.manifest.metadata_addr + slot * 256, block.encode())
            ]
            mark = self.sim.now
            if pipelined:
                prior, torn = yield from self.sync.install(
                    ops, hook_addr, expected, plan.code_addr, plan.flush,
                    note=txn,
                )
            else:
                body = {"txn": txn["txn"]} if txn else None
                for addr, payload in ops:
                    yield from self.sync.write(addr, payload, note=body)
            report.write_us = self.sim.now - mark
        except BaseException as err:
            # An install raises a ReproError only when its CAS never
            # ran; anything else (an interrupt) may leave it in flight.
            if not pipelined or isinstance(err, ReproError):
                self._unwind(plan, slot)
            raise

        if not pipelined:
            # rdx_tx over the staged image.  An *exception* here leaves
            # the outcome unknown (the CAS may have executed and lost
            # its ACK), so nothing is given back.
            mark, torn = self.sim.now, None
            prior = yield from self.sync.tx(
                plan.code_addr, b"", hook_addr, plan.code_addr, expected, txn
            )
            report.commit_us = self.sim.now - mark
        # Only a CAS that answered with the wrong prior value unwinds.
        if prior != expected:
            self._unwind(plan, slot)
            raise DeployError(
                f"{program.name}: hook {hook_name!r} CAS expected "
                f"{expected:#x}, found {prior:#x} (concurrent update?)"
            )
        if torn is not None:
            raise torn  # committed: the reconciler finishes the flushes

        mark = self.sim.now
        spans = plan.flush + [(hook_addr, 8)]
        if pipelined:
            yield from self.sync.flush_chained(spans)
        else:
            for addr, length in spans:
                yield from self.sync.cc_event(addr, length)
        report.cc_us = self.sim.now - mark

        self._bookkeep(
            program, hook_name, plan, slot, block.version, retain_history,
            report, image,
        )

    def _unwind(self, plan: _DeployPlan, slot: Optional[int]) -> None:
        """Give back what a deploy claimed before its commit failed.

        Both the extent *and* the metadata slot go back -- a slot
        leaked per CAS conflict exhausts the descriptor array under
        repeated contention.  A borrowed baseline may now hold a
        half-rewritten image, so it can never serve as a diff base (or
        rollback target) again: the registration is dropped and the
        extent retired.  Nothing points at it -- the hook never
        flipped -- so the deferred free is purely conservative.
        """
        self._metadata_used.discard(slot)
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

    def _bookkeep(
        self,
        program: BpfProgram,
        hook_name: str,
        plan: _DeployPlan,
        slot: int,
        version: int,
        retain_history: bool,
        report: DeployReport,
        image: bytes,
    ) -> None:
        """Post-commit record keeping: books, baseline roles, report."""
        self.free_retired()
        existing = plan.existing
        code_addr = plan.code_addr
        record = DeployedProgram(
            program=program,
            hook_name=hook_name,
            code_addr=code_addr,
            code_len=len(image),
            metadata_slot=slot,
            version=version,
            image=image,
            layout=self._last_link_key[1:] if self._last_link_key else None,
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

    def _observe_deploy(self, report: DeployReport) -> None:
        """Feed one successful deploy into the metrics registry."""
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
            tenant=self.tenant,
        ).observe(report.total_us)
        self.obs.histogram(
            "rdx.tenant.install_visible_us", tenant=self.tenant
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

    # -- detach / rollback support ----------------------------------------------

    def detach(self, program_name: str, record_intent: bool = True) -> Generator:
        """Remove the extension: hook -> 0, metadata -> detached."""
        record = self._record(program_name)
        yield from self.check_fence()
        txn = None
        if record_intent:
            plane = self.control_plane
            txn = plane._mint_txn("detach")
            plane.journal.begin(
                txn, "detach", plane.epoch,
                target=self.sandbox.name, name=program_name,
            )
        try:
            yield from self._detach_body(program_name, record)
        except BaseException as err:
            if txn is not None and not self.control_plane.crashed:
                self.control_plane.journal.abort(txn, reason=str(err))
            raise
        if txn is not None:
            self.control_plane.journal.commit(
                txn, target=self.sandbox.name, name=program_name
            )

    def _detach_body(
        self, program_name: str, record: DeployedProgram
    ) -> Generator:
        hook_addr = self._hook_addr(record.hook_name)
        prior = yield from self.sync.tx(
            obj_addr=record.code_addr,
            obj_bytes=b"",
            qword_addr=hook_addr,
            new_qword=0,
            expect=record.code_addr,
        )
        if prior != record.code_addr:
            raise DeployError(
                f"detach of {program_name}: hook moved underneath us"
            )
        yield from self.sync.cc_event(hook_addr, 8)
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

    def flip_to(self, program_name: str, code_addr: int) -> Generator:
        """Point the hook at an already-resident image (rollback path)."""
        record = self._record(program_name)
        hook_addr = self._hook_addr(record.hook_name)
        prior = yield from self.sync.tx(
            obj_addr=code_addr,
            obj_bytes=b"",
            qword_addr=hook_addr,
            new_qword=code_addr,
            expect=record.code_addr,
        )
        if prior != record.code_addr:
            raise DeployError(f"flip of {program_name}: concurrent update")
        yield from self.sync.cc_event(hook_addr, 8)
        record.history.append(record.code_addr)
        record.code_addr = code_addr
        record.version += 1
        # Rollback breaks the delta chain: the record no longer knows
        # the live extent's exact bytes, so the baseline pairing is
        # void.  The baseline extent stays resident while history (or
        # the hook itself) references it; otherwise it is retired.
        if (
            record.baseline_addr is not None
            and record.baseline_addr != record.code_addr
            and record.baseline_addr not in record.history
        ):
            self._retired.append(record.baseline_addr)
        record.image = None
        record.layout = None
        record.baseline_addr = None
        record.baseline_image = None
        record.baseline_version = 0

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
        self,
        spec: XStateSpec,
        initial: Optional[BpfMap] = None,
        record_intent: bool = True,
    ) -> Generator:
        """Allocate + inject one XState; returns an :class:`XStateHandle`.

        Steps (paper §3.4): (1) allocate a chunk from the scratchpad,
        (2) write the self-describing header + initial image, (3) write
        the Meta-XState index entry, then flush so the data path can
        adopt the new state immediately.
        """
        from repro.core.journal import xstate_spec_detail

        yield from self.check_fence()
        txn = None
        if record_intent:
            plane = self.control_plane
            txn = plane._mint_txn("xstate")
            plane.journal.begin(
                txn, "xstate", plane.epoch,
                target=self.sandbox.name, spec=xstate_spec_detail(spec),
            )
        try:
            handle = yield from self._deploy_xstate_body(spec, initial)
        except BaseException as err:
            if txn is not None and not self.control_plane.crashed:
                self.control_plane.journal.abort(txn, reason=str(err))
            raise
        if txn is not None:
            # Placement rides along in the COMMIT record so a restarted
            # control plane can adopt the chunk where it already lives.
            placed = dict(xstate_spec_detail(spec))
            placed["meta_index"] = handle.meta_index
            placed["header_addr"] = handle.header_addr
            self.control_plane.journal.commit(
                txn, target=self.sandbox.name, spec=placed
            )
        return handle

    def _deploy_xstate_body(
        self, spec: XStateSpec, initial: Optional[BpfMap]
    ) -> Generator:
        handle = self.scratchpad.allocate(spec)
        if initial is None:
            initial = BpfMap(
                spec.map_type, spec.key_size, spec.value_size, spec.max_entries,
                name=spec.name,
            )
        image = initial.serialize()
        if len(image) != spec.data_bytes():
            self.scratchpad.release(handle)
            raise XStateError(
                f"{spec.name}: initial image is {len(image)} bytes, "
                f"spec wants {spec.data_bytes()}"
            )
        with self.obs.span(
            "rdx.xstate.deploy", xstate=spec.name, target=self.sandbox.name
        ):
            yield from self.sync.write(
                handle.header_addr, encode_xstate_header(spec) + image
            )
            meta_addr = self.scratchpad.meta_entry_addr(handle.meta_index)
            prior = yield from self.sync.tx(
                obj_addr=handle.header_addr,
                obj_bytes=b"",
                qword_addr=meta_addr,
                new_qword=handle.header_addr,
                expect=0,
            )
            if prior != 0:
                self.scratchpad.release(handle)
                raise XStateError(
                    f"{spec.name}: meta slot {handle.meta_index} already taken"
                )
            yield from self.sync.cc_event(
                handle.header_addr, params.XSTATE_HEADER_BYTES
            )
        self.obs.counter("rdx.xstate.bytes_written").inc(
            params.XSTATE_HEADER_BYTES + len(image)
        )
        return handle

    def destroy_xstate(
        self, handle: XStateHandle, record_intent: bool = True
    ) -> Generator:
        """Clear the meta entry and free the chunk."""
        if record_intent:
            plane = self.control_plane
            txn = plane._mint_txn("xstate_destroy")
            plane.journal.begin(
                txn, "xstate_destroy", plane.epoch,
                target=self.sandbox.name, name=handle.name,
            )
        yield from self._destroy_xstate_body(handle)
        if record_intent:
            plane.journal.commit(
                txn, target=self.sandbox.name, name=handle.name
            )

    def _destroy_xstate_body(self, handle: XStateHandle) -> Generator:
        meta_addr = self.scratchpad.meta_entry_addr(handle.meta_index)
        prior = yield from self.sync.cas(meta_addr, handle.header_addr, 0)
        if prior != handle.header_addr:
            raise XStateError(f"{handle.name}: meta entry changed underneath us")
        # Poison the header magic so stale pointers cannot re-adopt it.
        yield from self.sync.write(handle.header_addr, b"\x00")
        yield from self.sync.cc_event(handle.header_addr, params.XSTATE_HEADER_BYTES)
        self.scratchpad.release(handle)

    # -- XState access (inspector APIs) ---------------------------------------------

    def xstate_lookup(self, handle: XStateHandle, key: bytes) -> Generator:
        """Remote map lookup via one-sided READs (no target CPU)."""
        spec = handle.spec
        slot_bytes = spec.slot_bytes()
        image = yield from self.read_raw(handle.data_addr, spec.data_bytes())
        rebuilt = BpfMap.deserialize(
            image, spec.map_type, spec.key_size, spec.value_size,
            spec.max_entries, name=spec.name,
        )
        del slot_bytes
        return rebuilt.lookup(key)

    def xstate_update(
        self, handle: XStateHandle, key: bytes, value: bytes
    ) -> Generator:
        """Remote map update: locate the slot, then write it in place."""
        spec = handle.spec
        if len(key) != spec.key_size or len(value) != spec.value_size:
            raise XStateError(f"{handle.name}: bad key/value geometry")
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
        yield from self.sync.write(slot_addr, payload)
        yield from self.sync.cc_event(slot_addr, len(payload))

    def read_raw(self, addr: int, length: int) -> Generator:
        """One-sided READ helper."""
        data = yield from self.sync.read(addr, length)
        return data

"""Anti-entropy reconciliation: converge targets to committed intent.

The journal (:mod:`repro.core.journal`) says what *should* be running;
the introspector (:mod:`repro.core.introspect`) can read what *is*.
This module closes the loop.  After any control-plane crash, node
reboot, or healed partition, a :class:`Reconciler` walks every target
and repairs the drift:

* **epoch** -- stamp the current incarnation's epoch (fencing any
  stale predecessor out for good);
* **wipe detection** -- a target whose control surface came back
  zeroed warm-rebooted; the CodeFlow's books are reset to match;
* **adoption** -- live images a previous incarnation deployed are
  adopted into the fresh CodeFlow's records (CRC-checked first), so
  intact work is *kept*, not redone;
* **redeploy / rehook** -- intended programs that are missing or
  corrupt are re-injected from the journal's artifact catalog;
  intended programs whose hook pointer drifted are re-flipped;
* **orphans** -- live descriptors nothing committed (half-applied
  work of in-flight transactions) are detached;
* **XState** -- intended state is adopted in place (the COMMIT record
  carries its placement) or redeployed;
* **bubbles** -- a bubble flag a dead broadcast left raised is
  lowered, unblocking the target's data path.

Every pass ends with a full remote audit; ``converged`` means the
audit came back clean *and* the target's surface matches the journal's
committed intent exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Generator, Optional, Sequence

from repro.errors import ReproError
from repro.mem.layout import pack_qword, unpack_qword
from repro.obs import telemetry_of
from repro.sandbox.metadata import MetadataBlock, SLOT_DETACHED, SLOT_LIVE
from repro.sandbox.sandbox import Sandbox
from repro.core.codeflow import CodeFlow
from repro.core.control_plane import RdxControlPlane
from repro.core.health import HealthDetector, TargetHealth
from repro.core.introspect import RemoteIntrospector
from repro.core.journal import IntentJournal, JournalError, TargetIntent
from repro.core.xstate import decode_xstate_header


@dataclass
class RepairAction:
    """One repair the reconciler performed on one target."""

    kind: str  # reset | adopt | redeploy | rehook | unhook | detach_orphan
    #         # | xstate_adopt | xstate_redeploy | lower_bubble
    subject: str
    detail: str = ""


@dataclass
class ReconcileReport:
    """Outcome of one anti-entropy pass over one target."""

    target: str
    started_us: float
    finished_us: float = 0.0
    #: True when the pass found a wiped control surface (warm reboot).
    rebooted: bool = False
    actions: list[RepairAction] = field(default_factory=list)
    #: The closing audit, when the pass got that far.
    audit: object = None
    #: Clean audit + surface exactly matches committed intent.
    converged: bool = False
    error: str = ""

    @property
    def duration_us(self) -> float:
        return self.finished_us - self.started_us


class Reconciler:
    """Converges targets to the journal's committed intent."""

    def __init__(
        self,
        control_plane: RdxControlPlane,
        health: Optional[HealthDetector] = None,
    ):
        self.plane = control_plane
        self.journal = control_plane.journal
        self.sim = control_plane.sim
        self.obs = telemetry_of(self.sim)
        self.health = health

    # -- entry points ----------------------------------------------------

    def reconcile_all(self, codeflows: Sequence[CodeFlow]) -> Generator:
        """Abort dangling intents, then converge every target in turn.

        Targets whose lease is DEAD (when a health detector is wired)
        are deferred rather than probed -- their report carries an
        ``error`` and no repair traffic is wasted on them.
        """
        for txn in self.journal.in_flight():
            try:
                self.journal.abort(
                    txn.txn, reason=f"superseded by epoch {self.plane.epoch}"
                )
            except JournalError:
                pass  # raced with a concurrent terminal record
            self.obs.counter("rdx.reconcile.aborted_txns").inc()
        intent = self.journal.committed_intent()
        reports = []
        for codeflow in codeflows:
            target = codeflow.sandbox.name
            if (
                self.health is not None
                and target in self.health.leases
                and self.health.state_of(target) is TargetHealth.DEAD
            ):
                report = ReconcileReport(target=target, started_us=self.sim.now)
                report.finished_us = self.sim.now
                report.error = "lease is dead; repair deferred"
                self.obs.counter("rdx.reconcile.deferred", target=target).inc()
                reports.append(report)
                continue
            report = yield from self.reconcile(
                codeflow, intent.get(target, TargetIntent())
            )
            reports.append(report)
        return reports

    def reconcile(self, codeflow: CodeFlow, intent: TargetIntent) -> Generator:
        """One anti-entropy pass over one target."""
        target = codeflow.sandbox.name
        report = ReconcileReport(target=target, started_us=self.sim.now)
        self.obs.counter("rdx.reconcile.runs", target=target).inc()
        with self.obs.span("rdx.reconcile", target=target) as span:
            try:
                yield from self._reconcile_body(codeflow, intent, report)
            except ReproError as err:
                report.error = str(err)
                span.status = "error"
                self.obs.counter("rdx.reconcile.failed", target=target).inc()
        report.finished_us = self.sim.now
        self.obs.histogram("rdx.reconcile.duration_us").observe(
            report.duration_us
        )
        for action in report.actions:
            self.obs.counter("rdx.reconcile.repairs", kind=action.kind).inc()
        if report.converged:
            self.obs.counter("rdx.reconcile.converged", target=target).inc()
        return report

    # -- the pass --------------------------------------------------------

    def _reconcile_body(
        self, codeflow: CodeFlow, intent: TargetIntent, report: ReconcileReport
    ) -> Generator:
        sync = codeflow.sync
        manifest = codeflow.manifest

        # Phase 0: wipe detection + epoch stamp.  A zeroed epoch word
        # under a handle that believes things are deployed means the
        # target warm-rebooted: every record describes unreachable
        # bytes, so the books reset before repair starts.  Stamping
        # raises StaleEpochError if a newer incarnation owns the
        # target -- then *we* are the drift.
        remote_epoch = yield from codeflow._read_remote_epoch()
        if remote_epoch == 0 and (
            codeflow.deployed or codeflow.scratchpad.live_count
        ):
            codeflow.reset_after_reboot()
            report.rebooted = True
            self._act(report, "reset", report.target, "control surface wiped")
        yield from codeflow.stamp_epoch(self.plane.epoch)

        # Phase 1: read the whole remote control surface in three
        # one-sided reads: hook table, metadata array, bubble flag.
        hooks_raw = yield from sync.read(
            manifest.hook_table_addr, len(manifest.hook_layout) * 8
        )
        pointers = {
            hook: unpack_qword(hooks_raw[slot * 8 : slot * 8 + 8])
            for hook, slot in manifest.hook_layout.items()
        }
        meta_raw = yield from sync.read(
            manifest.metadata_addr, manifest.metadata_slots * 256
        )
        live: dict[int, MetadataBlock] = {}
        for slot in range(manifest.metadata_slots):
            block = MetadataBlock.decode(meta_raw[slot * 256 : (slot + 1) * 256])
            if block.state == SLOT_LIVE:
                live[slot] = block
        # Reserve every live slot up front so redeploys never clobber
        # a descriptor that is still being considered for adoption.
        codeflow._metadata_used.update(live)

        # Phase 2: programs -- adopt intact survivors, redeploy the rest,
        # re-point drifted hooks.
        adopted_slots: set[int] = set()
        for name, tag in sorted(intent.programs.items()):
            yield from self._reconcile_program(
                codeflow, report, name, tag, intent, live, pointers,
                adopted_slots,
            )

        # Phase 3: orphans -- live descriptors committed intent does not
        # explain (half-applied work of aborted/in-flight transactions).
        for slot, block in sorted(live.items()):
            if slot in adopted_slots:
                continue
            if any(
                record.metadata_slot == slot
                for record in codeflow.deployed.values()
            ):
                continue
            yield from self._detach_orphan(codeflow, report, slot, block)

        # Phase 4: XState -- adopt in place via the journaled placement,
        # or redeploy.
        for name in sorted(intent.xstates):
            yield from self._reconcile_xstate(
                codeflow, report, name, intent.xstates[name]
            )

        # Phase 5: a bubble a dead broadcast left raised buffers the
        # target's requests forever -- lower it.
        bubble_raw = yield from sync.read(codeflow.sandbox.bubble_addr, 8)
        if unpack_qword(bubble_raw) != 0:
            addr = codeflow.sandbox.bubble_addr
            flag = ((addr, pack_qword(0)),)
            yield from sync.install([], None, 0, 0, [(addr, 8)], tail=flag)
            yield from sync.flush_chained([(addr, 8)])
            self._act(report, "lower_bubble", report.target, "stranded flag")

        # Phase 6: the closing audit, plus an exact intent match.
        introspector = RemoteIntrospector(codeflow)
        introspector.snapshot_deployed()
        report.audit = yield from introspector.audit()
        report.converged = report.audit.clean and self._matches_intent(
            codeflow, intent
        )

    def _reconcile_program(
        self, codeflow, report, name, tag, intent, live, pointers,
        adopted_slots,
    ) -> Generator:
        program = self.journal.program_for(tag)
        hook = next((h for h, t in intent.hooks.items() if t == tag), "")
        record = codeflow.deployed.get(name)

        if record is None:
            # Is an intact image for this tag already resident?  When
            # several copies of the same tag survive (the same program
            # was broadcast twice), prefer the one the hook is serving.
            candidates = sorted(
                (
                    (slot, block)
                    for slot, block in live.items()
                    if slot not in adopted_slots
                    and block.tag.rstrip(b"\x00") == tag.encode()[:16]
                ),
                key=lambda item: (
                    item[1].code_addr != pointers.get(hook, 0),
                    item[0],
                ),
            )
            for slot, block in candidates:
                image = yield from self._image_intact(codeflow, block)
                if image is None:
                    continue
                # The verified bytes ride into the record: the next
                # full deploy then registers this extent as a delta
                # baseline instead of treating its content as unknown.
                codeflow.adopt(program, hook, slot, block, image=image)
                adopted_slots.add(slot)
                record = codeflow.deployed[name]
                self._act(
                    report, "adopt", name,
                    f"slot {slot} @{block.code_addr:#x} v{block.version}",
                )
                if block.prog_id != program.prog_id:
                    # Identical code rebroadcast under a fresh prog_id:
                    # the catalog is the truth, the descriptor drifted.
                    yield from codeflow.sync.write(
                        codeflow.manifest.metadata_addr + slot * 256,
                        replace(block, prog_id=program.prog_id).encode(),
                    )
                    self._act(
                        report, "repair_descriptor", name,
                        f"prog_id {block.prog_id} -> {program.prog_id}",
                    )
                break

        if record is None:
            # Nothing usable survived: clear whatever squats on the
            # hook, then redeploy from the artifact catalog.
            current = pointers.get(hook, 0)
            if hook and current:
                yield from codeflow.commit_hook(hook, current, 0)
                pointers[hook] = 0
                self._act(report, "unhook", hook, f"cleared {current:#x}")
            yield from self.plane.inject(codeflow, program, hook)
            self._act(report, "redeploy", name, f"hook {hook}")
            return

        # The record exists (pre-existing or just adopted): make sure
        # the hook pointer agrees with it.
        if hook:
            current = pointers.get(hook, 0)
            if current != record.code_addr:
                yield from codeflow.commit_hook(hook, current, record.code_addr)
                pointers[hook] = record.code_addr
                codeflow._hook_owner[hook] = name
                self._act(
                    report, "rehook", hook,
                    f"{current:#x} -> {record.code_addr:#x}",
                )

    def _image_intact(self, codeflow, block: MetadataBlock) -> Generator:
        """CRC-check a candidate image; returns its bytes, or None.

        Returning the verified bytes (not just a boolean) lets the
        adopter record exactly which image is resident -- the delta
        deploy path needs known baseline bytes, and this readback is
        the only trustworthy source after a control-plane restart.
        """
        if block.code_len < 8:
            return None
        image = yield from codeflow.sync.read(block.code_addr, block.code_len)
        stored = int.from_bytes(image[-4:], "little")
        if zlib.crc32(image[:-4]) & 0xFFFFFFFF != stored:
            return None
        return image

    def _detach_orphan(self, codeflow, report, slot, block) -> Generator:
        # Clear any hook still pointing at the orphan's image first, so
        # the data path never runs code with a dead descriptor.
        manifest = codeflow.manifest
        # A redeploy earlier in this pass may have reused the orphan's
        # freed code pages: the hook then points at the *live* image
        # that overwrote the orphan, not at the orphan itself -- only
        # the stale descriptor needs clearing.
        reused = any(
            record.code_addr == block.code_addr
            for record in codeflow.deployed.values()
        )
        for hook in sorted(manifest.hook_layout):
            hook_addr = codeflow._hook_addr(hook)
            raw = yield from codeflow.sync.read(hook_addr, 8)
            if unpack_qword(raw) == block.code_addr and block.code_addr:
                if reused:
                    continue
                yield from codeflow.commit_hook(hook, block.code_addr, 0)
                self._act(report, "unhook", hook, f"orphan {block.name}")
        state_addr = manifest.metadata_addr + slot * 256
        yield from codeflow.sync.write(
            state_addr, SLOT_DETACHED.to_bytes(4, "little")
        )
        codeflow._metadata_used.discard(slot)
        self._act(
            report, "detach_orphan", block.name or f"slot{slot}",
            f"@{block.code_addr:#x}",
        )

    def _reconcile_xstate(self, codeflow, report, name, spec_detail) -> Generator:
        if codeflow.scratchpad.by_name(name) is not None:
            return
        spec = TargetIntent(xstates={name: spec_detail}).spec_of(name)
        meta_index = spec_detail.get("meta_index")
        header_addr = spec_detail.get("header_addr")
        if meta_index is not None and header_addr:
            entry_raw = yield from codeflow.sync.read(
                codeflow.scratchpad.meta_entry_addr(meta_index), 8
            )
            if unpack_qword(entry_raw) == header_addr:
                header_raw = yield from codeflow.sync.read(header_addr, 16)
                header = decode_xstate_header(header_raw)
                if (
                    header is not None
                    and header.key_size == spec.key_size
                    and header.value_size == spec.value_size
                    and header.max_entries == spec.max_entries
                ):
                    codeflow.scratchpad.adopt(spec, meta_index, header_addr)
                    self._act(
                        report, "xstate_adopt", name,
                        f"meta[{meta_index}] @{header_addr:#x}",
                    )
                    return
        yield from codeflow.deploy_xstate(spec)
        self._act(report, "xstate_redeploy", name, "")

    # -- convergence check ------------------------------------------------

    def _matches_intent(self, codeflow: CodeFlow, intent: TargetIntent) -> bool:
        if set(codeflow.deployed) != set(intent.programs):
            return False
        for name, tag in intent.programs.items():
            if codeflow.deployed[name].program.tag() != tag:
                return False
        for hook, tag in intent.hooks.items():
            owner = codeflow._hook_owner.get(hook)
            if owner is None or codeflow.deployed[owner].program.tag() != tag:
                return False
        for name in intent.xstates:
            if codeflow.scratchpad.by_name(name) is None:
                return False
        return True

    @staticmethod
    def _act(report: ReconcileReport, kind: str, subject: str, detail: str):
        report.actions.append(
            RepairAction(kind=kind, subject=subject, detail=detail)
        )


def resume_control_plane(
    host,
    journal: IntentJournal,
    sandboxes: Sequence[Sandbox],
    **plane_kwargs,
) -> Generator:
    """Bring up a fresh control-plane incarnation over an old journal.

    Claims the next epoch (fencing the dead/stale predecessor), opens a
    CodeFlow per sandbox -- stamping the new epoch into each target's
    control block on the way -- and returns ``(plane, codeflows)``.
    Run a :class:`Reconciler` over the codeflows next to repair drift;
    :func:`repro.exp.recovery_campaign.run_recovery_campaign` shows the
    full sequence.
    """
    plane = RdxControlPlane(host, journal=journal, **plane_kwargs)
    codeflows = []
    for sandbox in sandboxes:
        codeflow = yield from plane.create_codeflow(sandbox)
        codeflows.append(codeflow)
    return plane, codeflows

"""The RDX remote control plane (Fig 1b / Fig 3).

Consolidates everything node-local agents used to do -- validation,
JIT compilation, linking, state access -- onto a dedicated server,
and drives targets exclusively through one-sided RDMA.

Key property from §3.2: **validate once, deploy anywhere**.  Every
verdict, compiled image and linked image lives in the plane's
:class:`~repro.core.artifacts.ArtifactStore`, keyed by everything it
was reached under; repeat deployments of a cached program skip both
phases entirely, which is why RDX's injection path contains no
verification or JIT cost (Fig 4b).
"""

from __future__ import annotations

import itertools
import operator
from typing import Generator, NamedTuple, Optional, Sequence

from repro import params
from repro.errors import DeployError
from repro.ebpf.jit import jit_compile
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import MapGeometry, verify
from repro.net.topology import Host
from repro.obs import telemetry_of
from repro.obs.spans import Span
from repro.rdma.verbs import connect_qps, open_device
from repro.sandbox.sandbox import Sandbox
from repro.sim.resources import Resource
from repro.sim.trace import TraceRecorder
from repro.core.artifacts import ArtifactStore, target_maps
from repro.core.codeflow import CodeFlow
from repro.core.journal import IntentJournal
from repro.core.retry import RetryPolicy
from repro.core.security import Principal, SecurityPolicy
from repro.core.sync import RemoteSync

#: The control-CPU priority of a verifier or JIT charge: below install
#: work (warm probe, link, dispatch; priority 0), so install work takes
#: the next free core ahead of every queued compile charge.  Compiles
#: among themselves stay FIFO: a verifier claims its core before its JIT.
#: On a host of three or more cores a charge also holds a compile slot
#: (:meth:`RdxControlPlane._charge`), so one core is never running a
#: compile; the priority still orders a slot holder behind install work
#: when that core is busy.
COMPILE_PRIORITY = 1


class InstallLock(NamedTuple):
    """A per-target mutex :meth:`RdxControlPlane.inject` takes once the
    artifact is staged and releases at the commit CAS's answer.  It
    guards what reads or writes the handle's per-install state: the
    link (``_last_link_key``), the stage, the commit and the pin admit.
    The settle runs after the release; the next holder's stage joins it
    before it plans.  Lower ``priority`` is granted first; ``tenant``
    labels the holder's deploy."""

    resource: Resource
    priority: int = 0
    tenant: str = ""


class Intent:
    """One journaled operation's WAL transaction, from
    :meth:`RdxControlPlane.intent`: entering mints the txn id and writes
    INTEND with ``detail`` before any target byte moves; :meth:`phase`
    writes PHASE records; a clean exit writes COMMIT with :attr:`detail`
    as the body left it (replace a nested value, never mutate it: the
    INTEND record shares them), an exception ABORT with its text.  A
    crashed plane records nothing: the dangling INTEND is what tells
    the reconciler the work may be half-applied."""

    __slots__ = ("plane", "op", "detail", "txn")

    def __init__(self, plane: "RdxControlPlane", op: str, detail: dict):
        self.plane = plane
        self.op = op
        self.detail = detail
        self.txn = ""

    def __enter__(self) -> "Intent":
        plane = self.plane
        self.txn = plane._mint_txn(self.op)
        plane.journal.begin(self.txn, self.op, plane.epoch, **self.detail)
        return self

    def phase(self, name: str, **detail) -> None:
        # Looked up per call: the crash-before-flip fuzz scenario
        # patches the journal's ``phase`` to fail-stop the plane.
        self.plane.journal.phase(self.txn, name, **detail)

    def __exit__(self, kind, err, tb) -> bool:
        if kind is None:
            self.plane.journal.commit(self.txn, **self.detail)
        elif not self.plane.crashed:
            self.plane.journal.abort(self.txn, reason=str(err))
        return False


class RdxControlPlane:
    """The centralized authority overseeing extension lifecycles."""

    def __init__(
        self,
        host: Host,
        policy: Optional[SecurityPolicy] = None,
        trace: Optional[TraceRecorder] = None,
        retry: Optional[RetryPolicy] = None,
        journal: Optional[IntentJournal] = None,
        shard: str = "",
    ):
        self.host = host
        self.sim = host.sim
        #: Shard name when this plane owns one partition of a larger
        #: group (see :mod:`repro.core.shard`); also the aggregation
        #: key metric sites collapse per-target labels to when
        #: ``config.obs_target_labels`` is off.
        self.shard = shard
        self.policy = policy or SecurityPolicy.permissive()
        self.trace = trace or TraceRecorder(enabled=False)
        #: Durable intent journal (WAL).  Pass a prior incarnation's
        #: journal to inherit its history; see
        #: :func:`repro.core.reconcile.resume_control_plane`.
        self.journal = journal if journal is not None else IntentJournal()
        #: This incarnation's deployment epoch -- strictly above every
        #: epoch in the journal, stamped into each target's control
        #: block and used as a fencing token on every mutation.
        self.epoch = self.journal.claim_epoch()
        #: True once :meth:`crash` has run; a crashed incarnation
        #: abandons all in-flight work mid-step (no cleanup).
        self.crashed = False
        #: Per-instance txn-token source.  This used to be a module
        #: global, so token streams leaked across control planes and
        #: across runs in one process -- a determinism bug.  Qualifying
        #: tokens by epoch keeps them unique across incarnations too.
        self._token_source = itertools.count(0xBEEF_0001)
        #: Transport retry policy inherited by every CodeFlow's sync
        #: layer: transient faults (flaky links, slow-to-ACK targets)
        #: are absorbed with jittered backoff inside each one-sided op,
        #: so ``inject`` and friends only see *persistent* failures.
        self.retry = retry or RetryPolicy()
        self.obs = telemetry_of(host.sim)
        self.config = params.config_of(host.sim)
        self._verbs = open_device(host)
        self._pd = self._verbs.alloc_pd()
        self._cq = self._verbs.create_cq()
        #: The §3.2 artifact store: compile registry, linked images and
        #: serving pins (see :mod:`repro.core.artifacts`).
        self.artifacts = ArtifactStore(self)
        self.codeflows: list[CodeFlow] = []
        #: Compile slots: at most ``cores - 1`` verifier/JIT charges hold
        #: control-host cores at once, so install work always finds one
        #: no compile can take.  At least two, to keep the verifier ‖
        #: JIT pair, hence None (no cap) on a host of two cores or fewer.
        cores = host.cpu.cores
        self.compile_slots = Resource(self.sim, cores - 1) if cores > 2 else None
        self.validations_run = 0
        self.compiles_run = 0

    # The store's counters, under the names the ledger reads.
    cache_hits = property(operator.attrgetter("artifacts.registry.hits"))
    cache_evictions = property(operator.attrgetter("artifacts.registry.evictions"))
    prepare_coalesced = property(operator.attrgetter("artifacts.prepare_coalesced"))
    link_cache_hits = property(operator.attrgetter("artifacts.linked.hits"))
    link_cache_misses = property(operator.attrgetter("artifacts.linked.misses"))

    # -- incarnation lifecycle -------------------------------------------------

    def _mint_txn(self, op: str) -> str:
        """Journal transaction token, unique across incarnations."""
        return f"{op}-{self.epoch}.{next(self._token_source):x}"

    def intent(self, op: str, **detail) -> Intent:
        """``with plane.intent(op, **detail) as txn:`` -- the one WAL
        bracket every journaled operation runs its body in."""
        return Intent(self, op, detail)

    def _check_alive(self) -> None:
        if self.crashed:
            raise DeployError("control plane incarnation has crashed")

    def crash(self) -> None:
        """Model a hard control-plane crash.

        In-flight generator processes must be interrupted *by the
        caller* (the simulator cannot know which processes belong to
        this incarnation); this flag makes sure no cleanup path --
        broadcast's bubble-lowering finally block, abort rollbacks --
        runs on behalf of a dead process.  Whatever half-applied state
        the crash strands on targets is the reconciler's problem.
        """
        self.crashed = True
        self.trace.record(self.sim.now, "rdx.control.crash", epoch=self.epoch)
        self.obs.counter("rdx.control.crashes").inc()
        if self.config.obs:
            # Black-box write-out: snapshot the flight recorder (recent
            # spans + metric deltas + still-open spans) into the durable
            # WAL, where the next incarnation -- or an operator running
            # ``python -m repro.cli blackbox`` -- can read what the dead
            # incarnation was doing.
            self.journal.record_flight(
                self.epoch,
                self.obs.flight.snapshot(self.obs.tracer.open_spans),
            )

    # -- rdx_create_codeflow ---------------------------------------------------

    def create_codeflow(
        self, sandbox: Sandbox, principal: Optional[Principal] = None
    ) -> Generator:
        """Bind a CodeFlow to ``sandbox``; one-time per-target setup.

        Wires a QP pair to the target RNIC, then pulls the sandbox's
        global context (GOT snapshot) over RDMA so linking can happen
        remotely.  Returns the :class:`CodeFlow`.
        """
        self._check_alive()
        self.policy.check(principal, "create_codeflow", sandbox.name)
        if sandbox.ctx_manifest is None:
            raise DeployError(
                f"{sandbox.name}: management stubs not registered "
                "(run ctx_register first)"
            )
        manifest = sandbox.ctx_manifest

        with self.obs.span("rdx.create", target=sandbox.name):
            target_ctx = open_device(sandbox.host)
            target_pd_qp = target_ctx.create_qp(
                _pd_of(sandbox), target_ctx.create_cq()
            )
            local_qp = self._verbs.create_qp(self._pd, self._cq)
            connect_qps(local_qp, target_pd_qp)
            sync = RemoteSync(
                self.sim, local_qp, manifest.rkey, sandbox, retry=self.retry
            )

            # Stub rendezvous + GOT snapshot read.
            yield self.sim.timeout(params.RDX_STUB_RENDEZVOUS_US)
            got_size = len(manifest.got_layout) * 8
            if got_size:
                yield from sync.read(manifest.got_addr, got_size)

            codeflow = CodeFlow(
                control_plane=self,
                sandbox=sandbox,
                sync=sync,
                helper_addresses=manifest.helper_addresses,
            )
            codeflow._qp_pair = (
                (self._verbs, local_qp), (target_ctx, target_pd_qp)
            )
            # Stamp this incarnation's epoch into the target's control
            # block; refuses (StaleEpochError) if a newer incarnation
            # already owns the target.
            yield from codeflow.stamp_epoch(self.epoch)
        self.codeflows.append(codeflow)
        self.trace.record(
            self.sim.now, "rdx.codeflow.created", target=sandbox.name
        )
        return codeflow

    # -- rdx_validate_code -------------------------------------------------------
    #
    # Each compile stage is two halves: the work (policy checks, the
    # verifier or the JIT, the cost), which takes no simulated time and
    # raises on a rejected program, and the *charge* -- the stage's CPU
    # cost on one control-host core inside its span.  The artifact store
    # may run both works first and then overlap the two charges.

    def validate_code(
        self,
        program: BpfProgram,
        maps: Sequence[BpfMap] = (),
        ctx_size: int = 256,
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """Remote validation on the control plane's own CPU (§3.2)."""
        stats, charge = self.validate(program, maps, ctx_size, principal, parent_span)
        yield from charge
        return stats

    def validate(
        self,
        program: BpfProgram,
        maps: Sequence[BpfMap] = (),
        ctx_size: int = 256,
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> tuple:
        """The work of :meth:`validate_code`: ``(stats, charge)``, where
        ``charge`` is the process body that bills the verifier's cost.

        Dispatches to the right toolchain per extension family (eBPF
        register machine vs Wasm/UDF stack machine).
        """
        from repro.wasm.module import WasmModule
        from repro.wasm.validator import wasm_validate

        self.policy.check(principal, "validate", program.name)
        self.policy.check_program_limits(program)
        if isinstance(program, WasmModule):
            stats = wasm_validate(program)
            cost = (
                params.verify_cost_us(len(program.insns))
                * params.WASM_COMPILE_FACTOR
            )
        else:
            geometry = {
                slot: MapGeometry(m.key_size, m.value_size)
                for slot, m in enumerate(maps)
            }
            stats = verify(program, geometry, ctx_size=ctx_size)
            cost = params.verify_cost_us(len(program.insns))
        charge = self._charge(
            "validate", cost * params.RDX_CONTROL_COMPILE_FACTOR, parent_span,
            program=program.name, insns=len(program.insns),
        )
        return stats, charge

    # -- rdx_JIT_compile_code -------------------------------------------------------

    def jit_compile_code(
        self,
        program: BpfProgram,
        arch: str = "x86_64",
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """Cross-architecture JIT on the control plane (§3.2)."""
        binary, charge = self.jit(program, arch, principal, parent_span)
        yield from charge
        return binary

    def jit(
        self,
        program: BpfProgram,
        arch: str = "x86_64",
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> tuple:
        """The work of :meth:`jit_compile_code`: ``(binary, charge)``."""
        from repro.wasm.compiler import wasm_compile
        from repro.wasm.module import WasmModule

        self.policy.check(principal, "compile", program.name)
        if isinstance(program, WasmModule):
            binary = wasm_compile(program, arch=arch)
            cost = params.jit_cost_us(len(program.insns)) * params.WASM_COMPILE_FACTOR
        else:
            binary = jit_compile(program, arch=arch)
            cost = params.jit_cost_us(len(program.insns))
        charge = self._charge(
            "jit", cost * params.RDX_CONTROL_COMPILE_FACTOR, parent_span,
            program=program.name, arch=arch,
        )
        return binary, charge

    def _charge(
        self, stage: str, cost_us: float, parent_span: Optional[Span], **attrs
    ) -> Generator:
        """Process body: ``cost_us`` on one control-host core, requested
        at :data:`COMPILE_PRIORITY` while holding a compile slot, inside
        the ``rdx.<stage>`` span; counted once it has run.

        A free slot is claimed without an event, the way :meth:`CPU.run`
        claims a free core, so an uncontended charge schedules exactly
        what it did without slots.  The ``finally`` gives the slot back
        (or withdraws the request) when the charge is interrupted while
        running or queued."""
        slots = self.compile_slots
        with self.obs.span(f"rdx.{stage}", parent=parent_span, **attrs):
            if slots is None:
                yield from self.host.cpu.run(cost_us, COMPILE_PRIORITY)
            else:
                grant = slots.claim()
                try:
                    if grant is not None:
                        yield grant
                    yield from self.host.cpu.run(cost_us, COMPILE_PRIORITY)
                finally:
                    slots.unclaim(grant)
        self.obs.histogram(f"rdx.{stage}.cpu_us").observe(cost_us)
        if stage == "validate":
            self.validations_run += 1
        else:
            self.compiles_run += 1

    # -- registry (validate once, deploy anywhere) ------------------------------------

    def prepare_for(
        self,
        codeflow: CodeFlow,
        program: BpfProgram,
        maps: Sequence[BpfMap] = (),
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """Validate + compile for one target through the artifact store
        (:meth:`~repro.core.artifacts.ArtifactStore.prepare`).

        Geometry comes from the XStates already deployed on the
        target (the ext_spec of rdx_create_codeflow) when the caller
        does not supply live maps.
        """
        entry = yield from self.artifacts.prepare(
            program, maps or target_maps(codeflow, program),
            codeflow.manifest.arch, principal=principal,
            parent_span=parent_span,
        )
        return entry

    # -- one-call convenience ----------------------------------------------------------

    def inject(
        self,
        codeflow: CodeFlow,
        program: BpfProgram,
        hook_name: str,
        maps: Sequence[BpfMap] = (),
        principal: Optional[Principal] = None,
        retain_history: bool = True,
        parent_span: Optional[Span] = None,
        install_lock: Optional[InstallLock] = None,
        delta: bool = True,
    ) -> Generator:
        """prepare -> link -> deploy; returns the DeployReport.

        The deploy is WAL-journaled (:meth:`intent`): INTEND before
        any target byte moves, COMMIT only after the hook flip lands.
        A crash between the two leaves an in-flight record the
        reconciler cleans up.  ``delta`` is passed through to
        :meth:`CodeFlow.deploy_prog`.

        ``install_lock`` serializes installs on one target: the probe
        and the compile run without it, and it is held from the link to
        the commit CAS's answer and the pin admit (see
        :class:`InstallLock`).  The settle -- the hook-line flush and
        the record keeping -- runs in its own process after the
        release, and the deploy returns once it has: at install-visible.
        """
        self._check_alive()
        self.policy.check(principal, "deploy", codeflow.sandbox.name)
        self.journal.record_program(program)
        with self.intent(
            "deploy", target=codeflow.sandbox.name, hook=hook_name,
            name=program.name, tag=program.tag(),
        ) as txn, self.obs.span(
            "rdx.inject", parent=parent_span,
            program=program.name, target=codeflow.sandbox.name,
        ) as span:
            pin, entry = yield from self._compiled(
                codeflow, program, span, maps, principal
            )
            txn.phase("prepared")
            # The probe and the compile read only this plane's GOT
            # snapshot, so they ran unlocked.  From here on the
            # handle's per-install state moves: the link stamps the
            # key that deploy_prog and admit read.
            grant = None
            if install_lock is not None:
                grant = install_lock.resource.request(install_lock.priority)
            settles = []
            try:
                if grant is not None:
                    yield grant
                mark = self.sim.now
                linked = yield from self._linked(codeflow, pin, entry, span)
                link_us = self.sim.now - mark
                yield from codeflow.deploy_prog(
                    program, linked, hook_name,
                    retain_history=retain_history, parent_span=span,
                    delta=delta, settles=settles,
                    tenant=install_lock.tenant if install_lock else "",
                )
                self._admit(codeflow, program, entry)
            finally:
                if grant is not None:
                    install_lock.resource.release(grant)
            # The CAS has answered: the next install links, fences
            # and preps under this one's flush, and its stage joins
            # the settle before it plans.  This one ends at
            # install-visible.
            report = yield settles[0]
            report.warm = entry is None
            if report.mode == "delta":
                # Provenance: which resident image the delta was
                # computed against.  A restarted control plane (or an
                # auditor) can tell a delta-written extent from a
                # fully staged one -- the bytes at code_addr are only
                # as good as the baseline they were diffed over.
                txn.detail["deploy"] = {
                    "mode": "delta",
                    "base_addr": report.code_addr,
                    "base_version": report.delta_base_version,
                    "chunks": report.delta_chunks,
                    "bytes_moved": report.bytes_moved,
                }
        if self.config.obs:
            # Checkpoint metric deltas into the flight ring at commit
            # boundaries, so a later crash snapshot carries the counter
            # movement of the last few lifecycle ops.
            self.obs.flight.note_metrics(self.obs.registry)
        report.link_us = link_us
        report.total_us += link_us
        return report

    def stage_for(
        self, codeflow: CodeFlow, program: BpfProgram, hook_name: str,
        parent_span: Optional[Span] = None, delta: bool = True, tail: tuple = (),
        posted: Optional[list] = None,
    ) -> Generator:
        """:meth:`inject` up to the hook flip, unjournaled and unlocked:
        a broadcast leg with no image of its own.  Returns the plan
        :meth:`CodeFlow.flip_prog` commits."""
        self._check_alive()
        self.policy.check(None, "deploy", codeflow.sandbox.name)
        with self.obs.span(
            "rdx.inject", parent=parent_span,
            program=program.name, target=codeflow.sandbox.name,
        ) as span:
            pin, entry = yield from self._compiled(codeflow, program, span)
            mark = self.sim.now
            linked = yield from self._linked(codeflow, pin, entry, span)
            link_us = self.sim.now - mark
            plan = yield from codeflow.stage_prog(
                program, linked, hook_name, parent_span=span, delta=delta,
                tail=tail, posted=posted,
            )
            plan.report.warm = entry is None
            plan.report.link_us = link_us  # the flip adds it to the total
            self._admit(codeflow, program, entry)
        return plan

    def _compiled(self, codeflow, program, span, maps=(), principal=None):
        """The warm pool's pin for ``program`` on ``codeflow``, else its
        prepared entry: ``(pin, entry)``, one of them None.  A pin is a
        linked image certified (by re-fingerprinting its relocations)
        to be byte-correct for this target's current layout, so
        validate+JIT+link never run."""
        pin = entry = None
        store = self.artifacts
        if store.serving and self.config.schedule.reuse:
            pin = yield from store.pinned.probe(codeflow, program, parent_span=span)
        if pin is None:
            entry = yield from self.prepare_for(
                codeflow, program, maps=maps, principal=principal,
                parent_span=span,
            )
        return pin, entry

    def _linked(self, codeflow, pin, entry, span):
        if pin is not None:
            return codeflow.link_pinned(pin)
        return (yield from codeflow.link_code(entry.binary, parent_span=span))

    def _admit(self, codeflow, program, entry) -> None:
        if entry is not None and self.artifacts.serving:
            self.artifacts.pinned.admit(codeflow, program, entry.binary)

    # -- teardown ----------------------------------------------------------------

    def close_codeflow(self, codeflow: CodeFlow) -> None:
        """Tear down a CodeFlow: release its QP pair, drop the handle.

        Local bookkeeping only -- no remote bytes move, so the target
        keeps running whatever is deployed.  Use :meth:`CodeFlow.detach`
        first for a clean remote teardown.
        """
        if codeflow not in self.codeflows:
            raise DeployError(
                f"codeflow for {codeflow.sandbox.name} is not open "
                "on this control plane"
            )
        codeflow.close()
        self.codeflows.remove(codeflow)
        # Retire the target's metric series with its handle: a
        # long-lived plane churning through targets must not
        # accumulate dead per-target series (no-op when per-target
        # labels are aggregated away -- nothing was ever emitted).
        if self.obs.per_target_labels:
            self.obs.registry.drop(target=codeflow.sandbox.name)
        self.trace.record(
            self.sim.now, "rdx.codeflow.closed", target=codeflow.sandbox.name
        )


def _pd_of(sandbox: Sandbox):
    """The PD the sandbox registered its MR under (boot-time state)."""
    if sandbox.mr is None:
        raise DeployError(f"{sandbox.name}: no registered MR")
    pd = getattr(sandbox, "_boot_pd", None)
    if pd is None:
        raise DeployError(f"{sandbox.name}: boot PD missing")
    return pd

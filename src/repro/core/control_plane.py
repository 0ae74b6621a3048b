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
from typing import Generator, Optional, Sequence

from repro import params
from repro.errors import DeployError, SecurityError
from repro.ebpf.jit import jit_compile
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import MapGeometry, verify
from repro.net.topology import Host
from repro.obs import telemetry_of
from repro.obs.spans import Span
from repro.rdma.mr import AccessFlags
from repro.rdma.verbs import connect_qps, open_device
from repro.sandbox.sandbox import Sandbox
from repro.sim.trace import TraceRecorder
from repro.core.artifacts import ArtifactStore, target_maps
from repro.core.codeflow import CodeFlow
from repro.core.journal import IntentJournal
from repro.core.retry import RetryPolicy
from repro.core.security import Principal, SecurityPolicy
from repro.core.sync import RemoteSync


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

    def validate_code(
        self,
        program: BpfProgram,
        maps: Sequence[BpfMap] = (),
        ctx_size: int = 256,
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """Remote validation on the control plane's own CPU (§3.2).

        Dispatches to the right toolchain per extension family (eBPF
        register machine vs Wasm/UDF stack machine).
        """
        from repro.wasm.module import WasmModule
        from repro.wasm.validator import wasm_validate

        self.policy.check(principal, "validate", program.name)
        self.policy.check_program_limits(program)
        with self.obs.span(
            "rdx.validate", parent=parent_span,
            program=program.name, insns=len(program.insns),
        ):
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
            cost *= params.RDX_CONTROL_COMPILE_FACTOR
            yield from self.host.cpu.run(cost)
        self.obs.histogram("rdx.validate.cpu_us").observe(cost)
        self.validations_run += 1
        return stats

    # -- rdx_JIT_compile_code -------------------------------------------------------

    def jit_compile_code(
        self,
        program: BpfProgram,
        arch: str = "x86_64",
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """Cross-architecture JIT on the control plane (§3.2)."""
        from repro.wasm.compiler import wasm_compile
        from repro.wasm.module import WasmModule

        self.policy.check(principal, "compile", program.name)
        with self.obs.span(
            "rdx.jit", parent=parent_span, program=program.name, arch=arch
        ):
            if isinstance(program, WasmModule):
                binary = wasm_compile(program, arch=arch)
                cost = (
                    params.jit_cost_us(len(program.insns))
                    * params.WASM_COMPILE_FACTOR
                )
            else:
                binary = jit_compile(program, arch=arch)
                cost = params.jit_cost_us(len(program.insns))
            cost *= params.RDX_CONTROL_COMPILE_FACTOR
            yield from self.host.cpu.run(cost)
        self.obs.histogram("rdx.jit.cpu_us").observe(cost)
        self.compiles_run += 1
        return binary

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
        record_intent: bool = True,
        fenced: bool = False,
    ) -> Generator:
        """prepare -> link -> deploy; returns the DeployReport.

        Unless ``record_intent`` is off (broadcast journals at the
        transaction level instead), the deploy is WAL-journaled:
        INTEND before any target byte moves, COMMIT only after the
        hook flip lands.  A crash between the two leaves an in-flight
        record the reconciler cleans up.  ``fenced`` is passed through
        to :meth:`CodeFlow.deploy_prog` -- a broadcast leg that fenced
        while raising its bubble skips the duplicate epoch read.
        """
        self._check_alive()
        self.policy.check(principal, "deploy", codeflow.sandbox.name)
        txn = None
        tag = program.tag()
        if record_intent:
            self.journal.record_program(program)
            txn = self._mint_txn("deploy")
            self.journal.begin(
                txn, "deploy", self.epoch,
                target=codeflow.sandbox.name, hook=hook_name,
                name=program.name, tag=tag,
            )
        entry = None
        try:
            with self.obs.span(
                "rdx.inject", parent=parent_span,
                program=program.name, target=codeflow.sandbox.name,
            ) as span:
                # Warm path: a pinned image certified (by
                # re-fingerprinting its relocations) to be byte-correct
                # for this target's current layout -- validate+JIT+link
                # never run, and the deploy rides the pipelined chain.
                linked = None
                store = self.artifacts
                if store.serving and self.config.pipelined_deploy:
                    pin = yield from store.pinned.probe(
                        codeflow, program, parent_span=span
                    )
                    if pin is not None:
                        linked = codeflow.link_pinned(pin)
                link_us = 0.0
                if linked is None:
                    entry = yield from self.prepare_for(
                        codeflow, program, maps=maps, principal=principal,
                        parent_span=span,
                    )
                    if txn is not None:
                        self.journal.phase(txn, "prepared")
                    mark = self.sim.now
                    linked = yield from codeflow.link_code(
                        entry.binary, parent_span=span
                    )
                    link_us = self.sim.now - mark
                elif txn is not None:
                    self.journal.phase(txn, "prepared")
                report = yield from codeflow.deploy_prog(
                    program, linked, hook_name, retain_history=retain_history,
                    parent_span=span, fenced=fenced,
                )
                report.warm = entry is None
                if entry is not None and store.serving:
                    store.pinned.admit(codeflow, program, entry.binary)
        except BaseException as err:
            if txn is not None and not self.crashed:
                self.journal.abort(txn, reason=str(err))
            raise
        if txn is not None:
            detail = dict(
                target=codeflow.sandbox.name, hook=hook_name,
                name=program.name, tag=tag,
            )
            if report.mode == "delta":
                # Provenance: which resident image the delta was
                # computed against.  A restarted control plane (or an
                # auditor) can tell a delta-written extent from a
                # fully staged one -- the bytes at code_addr are only
                # as good as the baseline they were diffed over.
                detail["deploy"] = {
                    "mode": "delta",
                    "base_addr": report.code_addr,
                    "base_version": report.delta_base_version,
                    "chunks": report.delta_chunks,
                    "bytes_moved": report.bytes_moved,
                }
            self.journal.commit(txn, **detail)
        if self.config.obs:
            # Checkpoint metric deltas into the flight ring at commit
            # boundaries, so a later crash snapshot carries the counter
            # movement of the last few lifecycle ops.
            self.obs.flight.note_metrics(self.obs.registry)
        report.link_us = link_us
        report.total_us += link_us
        return report

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

"""The RDX remote control plane (Fig 1b / Fig 3).

Consolidates everything node-local agents used to do -- validation,
JIT compilation, linking, state access -- onto a dedicated server,
and drives targets exclusively through one-sided RDMA.

Key property from §3.2: **validate once, deploy anywhere**.  The
compile cache is keyed by (program tag, architecture) plus everything
else the verdict was reached under (map names and geometry, context
size; see :meth:`RdxControlPlane.prepare`); repeat deployments of a
cached program skip both phases entirely, which is why RDX's injection
path contains no verification or JIT cost (Fig 4b).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro import params
from repro.errors import DeployError, SecurityError
from repro.ebpf.jit import JitBinary, jit_compile
from repro.ebpf.loader import LocalLoader
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import MapGeometry, VerifierStats, verify
from repro.net.topology import Host
from repro.obs import telemetry_of
from repro.obs.spans import Span
from repro.rdma.mr import AccessFlags
from repro.rdma.verbs import connect_qps, open_device
from repro.sandbox.sandbox import Sandbox
from repro.sim.trace import TraceRecorder
from repro.core.codeflow import CodeFlow
from repro.core.journal import IntentJournal
from repro.core.retry import RetryPolicy
from repro.core.security import Principal, SecurityPolicy
from repro.core.sync import RemoteSync


#: What the verifier reads of a map.
_map_geometry = operator.attrgetter("key_size", "value_size")


@dataclass
class RegistryEntry:
    """One validated + compiled program in the filter/program registry."""

    program: BpfProgram
    arch: str
    stats: VerifierStats
    binary: JitBinary
    deploy_count: int = 0


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
        #: (tag, arch, map names, map geometry, ctx size) ->
        #: RegistryEntry; the §3.2 compile cache (see :meth:`prepare`).
        self.registry: dict[tuple, RegistryEntry] = {}
        #: Same key -> in-flight compile event.  Single-flight dedup:
        #: the first miss becomes the leader and everyone else waits on
        #: its event instead of duplicating validate+JIT.
        self._inflight: dict[tuple, object] = {}
        #: (code CRC, arch, GOT-layout fingerprint) -> linked JitBinary.
        #: Targets with identical layouts skip per-relocation rewriting
        #: entirely (see :meth:`CodeFlow.link_code`).
        self.linked_images: dict[tuple, JitBinary] = {}
        #: Optional warm linked-image pool (installed by
        #: :class:`repro.serve.DeployService`).  A warm hit resolves a
        #: deploy to a pre-linked image by (tag, arch, GOT-layout
        #: fingerprint) alone -- validate, JIT, *and* link are skipped.
        self.warm_pool = None
        self.codeflows: list[CodeFlow] = []
        self.validations_run = 0
        self.compiles_run = 0
        self.cache_hits = 0
        self.cache_evictions = 0
        self.prepare_coalesced = 0
        self.link_cache_hits = 0
        self.link_cache_misses = 0

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

    def prepare(
        self,
        program: BpfProgram,
        maps: Sequence[BpfMap] = (),
        arch: str = "x86_64",
        ctx_size: int = 256,
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """Validate + compile with caching; returns a RegistryEntry.

        Concurrent misses on one key coalesce: the first caller runs
        validate+JIT (the *leader*); everyone else parks on the
        in-flight event and receives the same entry -- N parallel
        injects of one program cost exactly one compile.  The registry
        used to be written only after the compile generator finished,
        so two concurrent misses both paid the full pipeline.  A
        leader failure propagates to every waiter (same error a solo
        caller would see) and clears the in-flight slot so a later
        retry can compile fresh.

        The key is everything the result may be reused for.  The tag
        covers the instructions only; the compiled image also depends
        on the architecture and the map *names* (its relocation
        symbols), the verdict also on each map's ``(key_size,
        value_size)`` and on the readable context window.  A hit on
        anything less would hand a target a verdict reached for
        another target's maps.
        """
        key = (
            program.tag(), arch, tuple(program.map_names),
            tuple(map(_map_geometry, maps)), ctx_size,
        )
        entry = self.registry.get(key)
        if entry is not None:
            self.cache_hits += 1
            self.obs.counter("rdx.cache.hit").inc()
            # LRU touch: dict ordering doubles as the recency list.
            self.registry[key] = self.registry.pop(key)
            return entry
        pending = self._inflight.get(key)
        if pending is not None:
            self.prepare_coalesced += 1
            self.obs.counter("rdx.prepare.coalesced").inc()
            entry = yield pending
            return entry
        self.obs.counter("rdx.cache.miss").inc()
        done = self.sim.event()
        self._inflight[key] = done
        try:
            stats = yield from self.validate_code(
                program, maps, ctx_size=ctx_size, principal=principal,
                parent_span=parent_span,
            )
            binary = yield from self.jit_compile_code(
                program, arch=arch, principal=principal, parent_span=parent_span
            )
        except BaseException as err:
            self._inflight.pop(key, None)
            done.fail(err)
            raise
        entry = RegistryEntry(program=program, arch=arch, stats=stats, binary=binary)
        self.registry[key] = entry
        while len(self.registry) > params.RDX_REGISTRY_CAP:
            victim = next(iter(self.registry))
            del self.registry[victim]
            self.cache_evictions += 1
            self.obs.counter("rdx.cache.evict").inc()
        self._inflight.pop(key, None)
        done.succeed(entry)
        return entry

    def compiled_binary(
        self, program: BpfProgram, arch: str
    ) -> Optional[JitBinary]:
        """The registry's compiled image of ``program`` for ``arch``.

        For callers that link without validating: the image, unlike
        the verdict, is the same under every map geometry.
        """
        wanted = (program.tag(), arch, tuple(program.map_names))
        for key, entry in self.registry.items():
            if key[:3] == wanted:
                return entry.binary
        return None

    def prepare_for(
        self,
        codeflow: CodeFlow,
        program: BpfProgram,
        maps: Sequence[BpfMap] = (),
        principal: Optional[Principal] = None,
        parent_span: Optional[Span] = None,
    ) -> Generator:
        """``prepare`` with map geometry resolved against one target.

        Geometry comes from the XStates already deployed on the
        target (the ext_spec of rdx_create_codeflow) when the caller
        does not supply live maps.
        """
        if not maps and getattr(program, "map_names", ()):
            maps = [
                _geometry_proxy(codeflow, name) for name in program.map_names
            ]
        entry = yield from self.prepare(
            program, maps, arch=codeflow.manifest.arch, principal=principal,
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
                # Warm path: a pool hit hands back a pre-linked image
                # certified (by re-fingerprinting its relocations) to
                # be byte-correct for this target's current layout --
                # validate+JIT+link never run, and the deploy rides the
                # pipelined chain directly.
                linked = None
                if self.warm_pool is not None and self.config.pipelined_deploy:
                    linked = yield from self.warm_pool.lookup(
                        codeflow, program, parent_span=span
                    )
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
                if entry is not None and self.warm_pool is not None:
                    # Cold deploy completed: let the pool count its
                    # key and admit it once popular.
                    self.warm_pool.note_deploy(program, codeflow, entry.binary)
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
        if entry is not None:
            entry.deploy_count += 1
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


class _GeometryOnly:
    """Stand-in carrying just the key/value sizes the verifier needs."""

    def __init__(self, key_size: int, value_size: int):
        self.key_size = key_size
        self.value_size = value_size


def _geometry_proxy(codeflow: CodeFlow, name: str) -> _GeometryOnly:
    handle = codeflow.scratchpad.by_name(name)
    if handle is not None:
        return _GeometryOnly(handle.spec.key_size, handle.spec.value_size)
    symbol = codeflow.sandbox.got.lookup(name)
    if symbol is not None and 0 <= symbol.token < len(codeflow.sandbox.maps):
        live = codeflow.sandbox.maps[symbol.token]
        return _GeometryOnly(live.key_size, live.value_size)
    raise DeployError(
        f"program references map {name!r} but no XState of that name is "
        f"deployed on {codeflow.sandbox.name} (deploy_xstate first)"
    )


def target_map_geometry(codeflow: CodeFlow, program: BpfProgram) -> tuple:
    """``(map_names, ((key_size, value_size), ...))`` on one target.

    The target-dependent part of the :meth:`RdxControlPlane.prepare`
    key: anything that skips validation for ``program`` on
    ``codeflow`` (the warm pool) must have matched on this first.
    Raises :class:`DeployError` when a map is not deployed there.
    """
    names = tuple(getattr(program, "map_names", ()))
    return names, tuple(
        _map_geometry(_geometry_proxy(codeflow, name)) for name in names
    )


def _pd_of(sandbox: Sandbox):
    """The PD the sandbox registered its MR under (boot-time state)."""
    if sandbox.mr is None:
        raise DeployError(f"{sandbox.name}: no registered MR")
    pd = getattr(sandbox, "_boot_pd", None)
    if pd is None:
        raise DeployError(f"{sandbox.name}: boot PD missing")
    return pd

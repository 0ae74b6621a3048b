"""The RNIC model: WQE processing, DMA, and wire timing.

Two properties matter for the paper and are modeled exactly:

1. **CPU bypass** -- executing a remote WR consumes *no* cycles on the
   target host's CPU; payloads are DMA'd straight into its memory
   (through the cache model, which leaves stale CPU cache lines behind
   -- the Fig 5 incoherence).
2. **Non-atomic large writes** -- a WRITE larger than one MTU lands
   chunk by chunk over the transfer window, so a concurrently polling
   CPU can observe a *partially written* object.  This is issue (1) of
   §3.5 and the reason ``rdx_tx`` exists.
"""

from __future__ import annotations

from typing import Optional

from repro import params
from repro.errors import ProtectionError, RdmaError, ReproError
from repro.fuzz import hooks as fuzz_hooks
from repro.hb import events as hb
from repro.mem.layout import pack_qword, unpack_qword
from repro.net.topology import Host
from repro.obs import telemetry_of
from repro.rdma.cq import Completion, WcStatus
from repro.rdma.mr import AccessFlags
from repro.rdma.qp import QpState, QueuePair, WorkRequest, WrOpcode
from repro.sim.core import Event
from repro.sim.resources import Resource

#: Wire MTU for chunked DMA landing of large writes.
RNIC_MTU_BYTES = 4096

#: The access bits each remote op needs, as plain ints (see
#: :meth:`repro.rdma.mr.ProtectionDomain.check_remote`).
_REMOTE_READ = int(AccessFlags.REMOTE_READ)
_REMOTE_WRITE = int(AccessFlags.REMOTE_WRITE)
_REMOTE_ATOMIC = int(AccessFlags.REMOTE_ATOMIC)


class _Unreachable(Exception):
    """Internal: target stopped ACKing mid-operation (crash/partition)."""


class Rnic:
    """One RDMA NIC attached to a host."""

    def __init__(self, host: Host, name: str = ""):
        self.host = host
        self.sim = host.sim
        self.name = name or f"{host.name}.rnic"
        # The send pipeline serializes WQE execution per NIC, which is
        # how a real RNIC's processing units behave under one QP-per-CF.
        self._pipeline = Resource(self.sim, capacity=4)
        self.wrs_processed = 0
        self.bytes_dma = 0
        #: QPs created on this NIC so far; gives each QP a stable
        #: per-RNIC ordinal for schedule-fuzz site keys.
        self.qps_created = 0
        host.nic = self
        # Read once (both are fixed before the first component): the
        # hb switch, and whether a decision tape perturbs this run.
        self._hb = params.config_of(self.sim).hb_check
        self._plan = fuzz_hooks.plan_of(self.sim)
        # Metric handles are resolved once and cached: the WR path is
        # the simulator's hottest loop, so per-op registry lookups are
        # kept off it.  Per-opcode counters are keyed by the opcode's
        # label: an enum member as a dict key pays a Python ``__hash__``.
        obs = telemetry_of(self.sim)
        self._m_verbs = {
            opcode.label: obs.counter("rdma.verbs", rnic=self.name, op=opcode.label)
            for opcode in WrOpcode
        }
        self._m_bytes = obs.counter("rdma.bytes_dma", rnic=self.name)
        self._m_cq_depth = obs.histogram("rdma.cq.depth")
        self._m_errors = obs.counter("rdma.wr_errors", rnic=self.name)
        self._m_chain = obs.histogram("rdma.wrs_per_doorbell")

    # -- submission ------------------------------------------------------

    def submit(self, qp: QueuePair, wr: WorkRequest) -> Event:
        """Queue a WR for processing; event fires with its Completion."""
        if self._hb:
            hb.emit_post(self.sim, qp, wr, chain=None, signaled=True)
        done = self.sim.event()
        self.sim.spawn(self._process(qp, wr, done), name=wr.opcode.wqe_name)
        return done

    def _process(self, qp: QueuePair, wr: WorkRequest, done: Event):
        """One signaled WR, from its pipeline slot to its CQE.

        Doorbell + WQE fetch at the initiator, then the opcode's remote
        effect (``_do_*``).  A WR that fails completes with an error
        status instead of taking the NIC down: a target that stops
        ACKing costs the RC retransmit budget and completes retryable;
        a protection fault, or any other fault inside the target (a DMA
        past the end of its DRAM), moves the QP to ERROR.
        """
        grant = self._pipeline.request()
        yield grant
        if self._plan is not None:
            # Schedule-fuzz choice point: stall this WR *while holding
            # its pipeline slot*, so WRs on sibling QPs overtake it --
            # true service reorder, not just added latency.
            yield from self._perturb(qp, "rnic.service")
        bytes_before = self.bytes_dma
        label = wr.opcode.label
        try:
            if qp.state is QpState.ERROR:
                completion = Completion(
                    wr.wr_id, label, WcStatus.WR_FLUSH_ERROR, error="QP in error state"
                )
            else:
                remote_qp = qp.remote
                assert remote_qp is not None
                remote_host = remote_qp.rnic.host
                # Doorbell + WQE fetch + initiator NIC processing.
                yield params.RDMA_DOORBELL_US + params.RNIC_OP_OVERHEAD_US
                try:
                    self._check_reachable(remote_host)
                    byte_len, result = yield from self._EXECUTE[label](
                        self, qp, wr, remote_qp, remote_host
                    )
                    completion = Completion(
                        wr.wr_id, label, WcStatus.SUCCESS, byte_len, result
                    )
                except _Unreachable as err:
                    # The target never ACKs: the initiator burns its RC
                    # retransmit budget, then surfaces a retryable
                    # completion.  The QP stays usable -- upper layers
                    # decide whether to retry (RetryPolicy) or declare
                    # the target dead.
                    yield params.RDMA_RETRY_TIMEOUT_US
                    completion = Completion(
                        wr.wr_id, label, WcStatus.RETRY_EXC_ERROR, error=str(err)
                    )
                except ReproError as err:
                    completion = Completion(
                        wr.wr_id, label, self._fault(qp, err), error=str(err)
                    )
        finally:
            self._pipeline.release(grant)
        if self._plan is not None:
            # Choice point two: delay CQE delivery after the remote
            # effect landed -- the window where "it completed" and "the
            # initiator knows it completed" diverge.
            yield from self._perturb(qp, "rnic.complete")
        self._retire(qp, completion, 1, label, bytes_before, done)

    def _perturb(self, qp: QueuePair, site: str):
        """A schedule-fuzz choice point: whatever the tape adds here."""
        extra = self._plan.delay_us(
            qp.fuzz_site(site), params.RDX_FUZZ_WR_DELAY_US
        )
        if extra:
            yield extra

    def submit_batch(self, qp: QueuePair, wrs: list[WorkRequest]) -> Event:
        """Queue a chained WR list; event fires with ONE Completion.

        Selective signaling: the chain retires under a single CQE
        carrying the last WR's id (``chained`` counts the batch).  A
        chain carries WRITEs and at most one COMP_SWAP, which must be
        fenced -- the install chain of body, commit CAS and flush
        doorbells (:meth:`repro.core.sync.RemoteSync.install`).  The
        fence is what makes the CAS a commit: it executes only after
        every earlier WR of its chain landed.  Anything else (a READ,
        an unfenced or second atomic) is rejected before it is posted.

        Observability: per-WR remote address ranges and signaled flags
        are surfaced as ``hb.post`` events (one per chained WR, not one
        per doorbell) -- only the tail WR is signaled, so nothing but
        the chain's single CQE can be mistaken for an ordering point.
        """
        atomics = 0
        for wr in wrs:
            if wr.opcode is WrOpcode.RDMA_WRITE:
                continue
            if wr.opcode is not WrOpcode.COMP_SWAP or atomics:
                raise RdmaError(
                    f"WR chains support RDMA_WRITE only, plus one fenced "
                    f"COMP_SWAP; got {wr.opcode}"
                )
            if not wr.fence:
                raise RdmaError(
                    "an atomic in a WR chain must be fenced: unfenced, "
                    "it may execute before the WRs it commits"
                )
            atomics = 1
        chain = None
        if self._hb:
            chain = next(self.sim.ids.chain)
            for wr in wrs:
                hb.emit_post(
                    self.sim, qp, wr, chain=chain, signaled=wr is wrs[-1]
                )
        done = self.sim.event()
        self.sim.spawn(
            self._process_batch(qp, wrs, done, chain, atomics),
            name=f"wqe-chain:{len(wrs)}",
        )
        return done

    def _process_batch(
        self, qp: QueuePair, wrs: list[WorkRequest], done: Event, chain=None,
        atomics: int = 0,
    ):
        """A chain, from its pipeline slot to its one CQE, serviced as
        one pipelined stream.

        Cost model: one doorbell + one WQE-list fetch at the initiator,
        one first-byte latency + remote NIC overhead for the stream,
        then pure serialization per MTU chunk, then one ACK for the
        signaled tail.  A fenced CAS costs the responder one more
        :data:`~repro.params.RNIC_OP_OVERHEAD_US` once everything before
        it landed; no second round trip.  Torn-write semantics are
        preserved exactly as in :meth:`_do_write`: chunks land one by
        one, reachability is re-checked per chunk and before the CAS,
        and a crash mid-chain strands the prefix in target DRAM while
        later WRs never execute.  A failed chain's CQE names the WR it
        stopped at; the CQE carries the CAS's prior value as ``result``
        whenever the CAS executed, failed chain or not -- an atomic's
        response leaves the responder as it executes.
        """
        grant = self._pipeline.request()
        yield grant
        if self._plan is not None:
            # Chains perturb as one unit: the doorbell batch is a
            # single schedulable entity (SQ FIFO inside it is fixed).
            yield from self._perturb(qp, "rnic.service")
        bytes_before = self.bytes_dma
        count = len(wrs)
        label = WrOpcode.RDMA_WRITE.label
        try:
            if qp.state is QpState.ERROR:
                completion = Completion(
                    wrs[-1].wr_id, wrs[-1].opcode.label, WcStatus.WR_FLUSH_ERROR,
                    error="QP in error state", chained=count,
                )
            else:
                remote_qp = qp.remote
                assert remote_qp is not None
                remote_host = remote_qp.rnic.host
                check_remote = remote_qp.pd.check_remote
                # One doorbell + one WQE-list fetch covers the whole
                # chain -- the doorbell coalescing being measured.
                yield params.RDMA_DOORBELL_US + params.RNIC_OP_OVERHEAD_US
                landed = byte_len = 0
                prior = None
                try:
                    self._check_reachable(remote_host)
                    # First byte of the stream reaches the target once.
                    yield params.NET_BASE_LATENCY_US + params.RNIC_OP_OVERHEAD_US
                    for wr in wrs:
                        data = wr.data
                        if wr.opcode is not WrOpcode.RDMA_WRITE:
                            # The fenced CAS: every earlier WR has landed.
                            self._check_atomic(wr, remote_qp)
                            yield params.RNIC_OP_OVERHEAD_US
                            self._check_reachable(remote_host)
                            prior = self._apply_atomic(qp, wr, remote_host, chain)
                            landed += 1
                            byte_len += 8
                            continue
                        # Per-WR protection check happens when the target
                        # NIC starts placing that WR, not up front:
                        # earlier WRs in the chain have already landed.
                        check_remote(wr.rkey, wr.remote_addr, len(data), _REMOTE_WRITE)
                        offset = 0
                        while offset < len(data):
                            chunk = data[offset : offset + RNIC_MTU_BYTES]
                            yield len(chunk) / params.RDMA_BANDWIDTH_BPUS
                            self._check_reachable(remote_host)
                            remote_host.cache.dma_write(wr.remote_addr + offset, chunk)
                            self.bytes_dma += len(chunk)
                            offset += len(chunk)
                        landed += 1
                        byte_len += len(data)
                        if self._hb:
                            self._emit_write_land(qp, wr, chain)
                    # Single ACK for the signaled tail WR.
                    yield params.NET_BASE_LATENCY_US
                    completion = Completion(
                        wrs[-1].wr_id, wrs[-1].opcode.label, WcStatus.SUCCESS,
                        byte_len, prior, chained=count,
                    )
                except _Unreachable as err:
                    yield params.RDMA_RETRY_TIMEOUT_US
                    wr = wrs[min(landed, count - 1)]
                    completion = Completion(
                        wr.wr_id, wr.opcode.label, WcStatus.RETRY_EXC_ERROR,
                        result=prior, error=str(err), chained=count,
                    )
                except ReproError as err:
                    wr = wrs[landed]
                    completion = Completion(
                        wr.wr_id, wr.opcode.label, self._fault(qp, err),
                        result=prior, error=str(err), chained=count,
                    )
        finally:
            self._pipeline.release(grant)
        if self._plan is not None:
            yield from self._perturb(qp, "rnic.complete")
        self._m_chain.observe(count)
        if atomics:
            self._m_verbs[WrOpcode.COMP_SWAP.label].inc(atomics)
        self._retire(
            qp, completion, count, label, bytes_before, done, chain,
            count - atomics,
        )

    def _retire(
        self, qp: QueuePair, completion: Completion, count: int, label: str,
        bytes_before: int, done: Event, chain=None, verbs: Optional[int] = None,
    ) -> None:
        """Retire ``count`` WRs under their one CQE: counters, the CQ,
        then the poster's event.  ``verbs`` of them (default: all) count
        as ``label`` ops; a chain counts its atomic itself."""
        qp.completed += count
        self.wrs_processed += count
        self._m_verbs[label].inc(count if verbs is None else verbs)
        self._m_bytes.inc(self.bytes_dma - bytes_before)
        if completion.status is not WcStatus.SUCCESS:
            self._m_errors.inc()
        self._m_cq_depth.observe(qp.cq.push(completion))
        if self._hb:
            hb.emit_comp(
                self.sim,
                qp,
                completion.wr_id,
                status=completion.status.value,
                chain=chain,
                chained=count,
            )
        done.succeed(completion)

    @staticmethod
    def _fault(qp: QueuePair, err: ReproError) -> WcStatus:
        """The status of a WR a fault stopped at the target.  The QP
        goes to ERROR, so nothing posted behind the WR executes."""
        if qp.state is not QpState.ERROR:
            qp.modify(QpState.ERROR)
        if isinstance(err, ProtectionError):
            return WcStatus.REMOTE_ACCESS_ERROR
        return WcStatus.REMOTE_OP_ERROR

    # -- execution ---------------------------------------------------------

    def _emit_write_land(self, qp: QueuePair, wr: WorkRequest, chain=None):
        """Record a fully landed WRITE; 8-byte writes carry the qword
        now in DRAM so reads-from edges can be recovered."""
        value = None
        if len(wr.data) == 8:
            value = unpack_qword(wr.data)
        hb.emit_land(self.sim, qp, wr, chain=chain, value=value)

    def _check_reachable(self, remote_host: Host) -> None:
        """Raise :class:`_Unreachable` when the target cannot ACK.

        Runs per MTU chunk, so it asks the fabric only when the fabric
        could say no: a host pair is cut, or this NIC's own host is down
        (the target's crash flag it reads itself)."""
        if remote_host.crashed:
            raise _Unreachable(f"{remote_host.name} crashed (no ACK)")
        fabric = self.host.fabric
        if (
            fabric is not None
            and remote_host.fabric is fabric
            and (self.host.crashed or fabric.severed_pairs())
            and not fabric.reachable(self.host.name, remote_host.name)
        ):
            raise _Unreachable(
                f"{remote_host.name} unreachable from {self.host.name} "
                f"(link partitioned)"
            )

    # Each ``_do_*`` is one opcode's remote effect after the doorbell;
    # it returns the completion's ``(byte_len, result)``.

    def _do_write(self, qp, wr: WorkRequest, remote_qp, remote_host: Host):
        data = wr.data
        remote_qp.pd.check_remote(wr.rkey, wr.remote_addr, len(data), _REMOTE_WRITE)
        # First byte arrives after one-way latency + remote NIC overhead.
        yield params.NET_BASE_LATENCY_US + params.RNIC_OP_OVERHEAD_US
        # Chunked landing: each MTU lands after its serialization time,
        # so a large object is visible *partially written* in between.
        offset = 0
        while offset < len(data):
            chunk = data[offset : offset + RNIC_MTU_BYTES]
            yield len(chunk) / params.RDMA_BANDWIDTH_BPUS
            # A crash mid-transfer loses the unACKed remainder: chunks
            # already landed stay (DMA'd DRAM survives), the rest never
            # arrives -- exactly the torn state rdx_tx protects against.
            self._check_reachable(remote_host)
            remote_host.cache.dma_write(wr.remote_addr + offset, chunk)
            self.bytes_dma += len(chunk)
            offset += len(chunk)
        if self._hb:
            self._emit_write_land(qp, wr)
        # ACK back to the initiator.
        yield params.NET_BASE_LATENCY_US
        return len(data), None

    def _do_read(self, qp, wr: WorkRequest, remote_qp, remote_host: Host):
        remote_qp.pd.check_remote(wr.rkey, wr.remote_addr, wr.length, _REMOTE_READ)
        yield params.NET_BASE_LATENCY_US + params.RNIC_OP_OVERHEAD_US
        data = remote_host.cache.dma_read(wr.remote_addr, wr.length)
        self.bytes_dma += wr.length
        if self._hb:
            value = unpack_qword(data) if wr.length == 8 else None
            hb.emit_land(self.sim, qp, wr, value=value)
        # Response serialization + return latency.
        yield wr.length / params.RDMA_BANDWIDTH_BPUS + params.NET_BASE_LATENCY_US
        return wr.length, data

    def _do_atomic(self, qp, wr: WorkRequest, remote_qp, remote_host: Host):
        self._check_atomic(wr, remote_qp)
        # Atomics are RTT-bound, independent of payload.
        yield params.RDMA_ATOMIC_RTT_US
        return 8, self._apply_atomic(qp, wr, remote_host)

    @staticmethod
    def _check_atomic(wr: WorkRequest, remote_qp) -> None:
        if wr.remote_addr % 8:
            raise ProtectionError("atomic target must be 8-byte aligned")
        remote_qp.pd.check_remote(wr.rkey, wr.remote_addr, 8, _REMOTE_ATOMIC)

    def _apply_atomic(self, qp, wr: WorkRequest, remote_host: Host, chain=None):
        """An atomic's effect on the target qword; returns its prior value."""
        original = unpack_qword(remote_host.memory.read(wr.remote_addr, 8))
        if wr.opcode is WrOpcode.COMP_SWAP:
            success = original == wr.compare
            if success:
                remote_host.cache.dma_write(wr.remote_addr, pack_qword(wr.swap_or_add))
            if self._hb:
                hb.emit_land(
                    self.sim, qp, wr, chain=chain,
                    value=wr.swap_or_add if success else None,
                    success=success,
                )
        else:  # FETCH_ADD
            remote_host.cache.dma_write(
                wr.remote_addr, pack_qword(original + wr.swap_or_add)
            )
            if self._hb:
                hb.emit_land(
                    self.sim, qp, wr,
                    value=original + wr.swap_or_add, success=True,
                )
        self.bytes_dma += 8
        return original

    def _do_send(self, qp, wr: WorkRequest, remote_qp, remote_host: Host):
        if not remote_qp.recv_queue:
            raise ProtectionError("receiver not ready (no posted recv)")
        addr, length = remote_qp.recv_queue.pop(0)
        if len(wr.data) > length:
            raise ProtectionError(
                f"SEND of {len(wr.data)} bytes into {length}-byte recv buffer"
            )
        yield (
            params.NET_BASE_LATENCY_US
            + params.RNIC_OP_OVERHEAD_US
            + len(wr.data) / params.RDMA_BANDWIDTH_BPUS
        )
        remote_host.cache.dma_write(addr, wr.data)
        self.bytes_dma += len(wr.data)
        remote_qp.cq.push(
            Completion(
                wr_id=wr.wr_id,
                opcode="recv",
                status=WcStatus.SUCCESS,
                byte_len=len(wr.data),
                result=addr,
            )
        )
        yield params.NET_BASE_LATENCY_US
        return len(wr.data), None

    #: Opcode label -> its ``_do_*``.
    _EXECUTE = {
        WrOpcode.RDMA_WRITE.label: _do_write,
        WrOpcode.RDMA_READ.label: _do_read,
        WrOpcode.COMP_SWAP.label: _do_atomic,
        WrOpcode.FETCH_ADD.label: _do_atomic,
        WrOpcode.SEND.label: _do_send,
    }

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

from typing import TYPE_CHECKING

from repro import params
from repro.errors import ProtectionError, RdmaError
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
        # kept off it.
        obs = telemetry_of(self.sim)
        self._m_verbs = {
            opcode: obs.counter("rdma.verbs", rnic=self.name, op=opcode.value)
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
        self.sim.spawn(self._process(qp, wr, done), name=f"wqe:{wr.opcode.value}")
        return done

    def _process(self, qp: QueuePair, wr: WorkRequest, done: Event):
        grant = self._pipeline.request()
        yield grant
        if self._plan is not None:
            # Schedule-fuzz choice point: stall this WR *while holding
            # its pipeline slot*, so WRs on sibling QPs overtake it --
            # true service reorder, not just added latency.
            yield from self._perturb(qp, "rnic.service")
        bytes_before = self.bytes_dma
        try:
            if qp.state is QpState.ERROR:
                completion = Completion(
                    wr_id=wr.wr_id,
                    opcode=wr.opcode.value,
                    status=WcStatus.WR_FLUSH_ERROR,
                    error="QP in error state",
                )
            else:
                completion = yield from self._execute(qp, wr)
        finally:
            self._pipeline.release(grant)
        if self._plan is not None:
            # Choice point two: delay CQE delivery after the remote
            # effect landed -- the window where "it completed" and "the
            # initiator knows it completed" diverge.
            yield from self._perturb(qp, "rnic.complete")
        qp.completed += 1
        self.wrs_processed += 1
        self._m_verbs[wr.opcode].inc()
        self._m_bytes.inc(self.bytes_dma - bytes_before)
        if completion.status is not WcStatus.SUCCESS:
            self._m_errors.inc()
        qp.cq.push(completion)
        self._m_cq_depth.observe(len(qp.cq))
        if self._hb:
            hb.emit_comp(self.sim, qp, wr.wr_id, status=completion.status.value)
        done.succeed(completion)

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
        carrying the last WR's id (``chained`` counts the batch).  Only
        WRITE chains are supported -- the deploy fast path is all
        one-sided WRITEs, and mixing opcodes would complicate the
        failure model for no caller.

        Observability: per-WR remote address ranges and signaled flags
        are surfaced as ``hb.post`` events (one per chained WR, not one
        per doorbell) -- only the tail WR is signaled, so nothing but
        the chain's single CQE can be mistaken for an ordering point.
        """
        for wr in wrs:
            if wr.opcode is not WrOpcode.RDMA_WRITE:
                raise RdmaError(
                    f"WR chains support RDMA_WRITE only, got {wr.opcode}"
                )
        chain = None
        if self._hb:
            chain = hb.new_chain_id()
            for wr in wrs:
                hb.emit_post(
                    self.sim, qp, wr, chain=chain, signaled=wr is wrs[-1]
                )
        done = self.sim.event()
        self.sim.spawn(
            self._process_batch(qp, wrs, done, chain),
            name=f"wqe-chain:{len(wrs)}",
        )
        return done

    def _process_batch(
        self, qp: QueuePair, wrs: list[WorkRequest], done: Event, chain=None
    ):
        grant = self._pipeline.request()
        yield grant
        if self._plan is not None:
            # Chains perturb as one unit: the doorbell batch is a
            # single schedulable entity (SQ FIFO inside it is fixed).
            yield from self._perturb(qp, "rnic.service")
        bytes_before = self.bytes_dma
        try:
            if qp.state is QpState.ERROR:
                completion = Completion(
                    wr_id=wrs[-1].wr_id,
                    opcode=wrs[-1].opcode.value,
                    status=WcStatus.WR_FLUSH_ERROR,
                    error="QP in error state",
                    chained=len(wrs),
                )
            else:
                completion = yield from self._execute_chain(qp, wrs, chain)
        finally:
            self._pipeline.release(grant)
        if self._plan is not None:
            yield from self._perturb(qp, "rnic.complete")
        qp.completed += len(wrs)
        self.wrs_processed += len(wrs)
        self._m_verbs[wrs[0].opcode].inc(len(wrs))
        self._m_bytes.inc(self.bytes_dma - bytes_before)
        self._m_chain.observe(len(wrs))
        if completion.status is not WcStatus.SUCCESS:
            self._m_errors.inc()
        qp.cq.push(completion)
        self._m_cq_depth.observe(len(qp.cq))
        if self._hb:
            hb.emit_comp(
                self.sim,
                qp,
                completion.wr_id,
                status=completion.status.value,
                chain=chain,
                chained=len(wrs),
            )
        done.succeed(completion)

    # -- execution ---------------------------------------------------------

    def _execute(self, qp: QueuePair, wr: WorkRequest):
        remote_qp = qp.remote
        assert remote_qp is not None
        remote_host = remote_qp.rnic.host

        # Doorbell + WQE fetch + initiator NIC processing.
        yield params.RDMA_DOORBELL_US + params.RNIC_OP_OVERHEAD_US

        try:
            self._check_reachable(remote_host)
            if wr.opcode is WrOpcode.RDMA_WRITE:
                result = yield from self._do_write(qp, wr, remote_qp, remote_host)
            elif wr.opcode is WrOpcode.RDMA_READ:
                result = yield from self._do_read(qp, wr, remote_qp, remote_host)
            elif wr.opcode in (WrOpcode.COMP_SWAP, WrOpcode.FETCH_ADD):
                result = yield from self._do_atomic(qp, wr, remote_qp, remote_host)
            elif wr.opcode is WrOpcode.SEND:
                result = yield from self._do_send(qp, wr, remote_qp, remote_host)
            else:
                raise RdmaError(f"unsupported opcode {wr.opcode}")
        except ProtectionError as err:
            qp.modify(QpState.ERROR)
            return Completion(
                wr_id=wr.wr_id,
                opcode=wr.opcode.value,
                status=WcStatus.REMOTE_ACCESS_ERROR,
                error=str(err),
            )
        except _Unreachable as err:
            # The target never ACKs: the initiator burns its RC
            # retransmit budget, then surfaces a retryable completion.
            # The QP stays usable -- upper layers decide whether to
            # retry (RetryPolicy) or declare the target dead.
            yield params.RDMA_RETRY_TIMEOUT_US
            return Completion(
                wr_id=wr.wr_id,
                opcode=wr.opcode.value,
                status=WcStatus.RETRY_EXC_ERROR,
                error=str(err),
            )
        return Completion(
            wr_id=wr.wr_id,
            opcode=wr.opcode.value,
            status=WcStatus.SUCCESS,
            byte_len=wr.wire_bytes(),
            result=result,
        )

    def _execute_chain(self, qp: QueuePair, wrs: list[WorkRequest], chain=None):
        """Service a WRITE chain as one pipelined stream.

        Cost model: one doorbell + one WQE-list fetch at the initiator,
        one first-byte latency + remote NIC overhead for the stream,
        then pure serialization per MTU chunk, then one ACK for the
        signaled tail.  Torn-write semantics are preserved exactly as
        in :meth:`_do_write`: chunks land one by one, reachability is
        re-checked per chunk, and a crash mid-chain strands the prefix
        in target DRAM while later WRs never execute.
        """
        remote_qp = qp.remote
        assert remote_qp is not None
        remote_host = remote_qp.rnic.host

        # One doorbell + one WQE-list fetch covers the whole chain --
        # the doorbell coalescing being measured.
        yield params.RDMA_DOORBELL_US + params.RNIC_OP_OVERHEAD_US
        landed = 0
        try:
            self._check_reachable(remote_host)
            # First byte of the stream reaches the target once.
            yield params.NET_BASE_LATENCY_US + params.RNIC_OP_OVERHEAD_US
            for wr in wrs:
                # Per-WR protection check happens when the target NIC
                # starts placing that WR, not up front: earlier WRs in
                # the chain have already landed by then.
                self._check_remote(
                    remote_qp, wr, len(wr.data), AccessFlags.REMOTE_WRITE
                )
                offset = 0
                while offset < len(wr.data):
                    chunk = wr.data[offset : offset + RNIC_MTU_BYTES]
                    yield len(chunk) / params.RDMA_BANDWIDTH_BPUS
                    self._check_reachable(remote_host)
                    remote_host.cache.dma_write(wr.remote_addr + offset, chunk)
                    self.bytes_dma += len(chunk)
                    offset += len(chunk)
                landed += 1
                if self._hb:
                    self._emit_write_land(qp, wr, chain)
            # Single ACK for the signaled tail WR.
            yield params.NET_BASE_LATENCY_US
        except ProtectionError as err:
            qp.modify(QpState.ERROR)
            return Completion(
                wr_id=wrs[landed].wr_id,
                opcode=wrs[landed].opcode.value,
                status=WcStatus.REMOTE_ACCESS_ERROR,
                error=str(err),
                chained=len(wrs),
            )
        except _Unreachable as err:
            yield params.RDMA_RETRY_TIMEOUT_US
            return Completion(
                wr_id=wrs[min(landed, len(wrs) - 1)].wr_id,
                opcode=wrs[0].opcode.value,
                status=WcStatus.RETRY_EXC_ERROR,
                error=str(err),
                chained=len(wrs),
            )
        return Completion(
            wr_id=wrs[-1].wr_id,
            opcode=wrs[-1].opcode.value,
            status=WcStatus.SUCCESS,
            byte_len=sum(wr.wire_bytes() for wr in wrs),
            chained=len(wrs),
        )

    def _emit_write_land(self, qp: QueuePair, wr: WorkRequest, chain=None):
        """Record a fully landed WRITE; 8-byte writes carry the qword
        now in DRAM so reads-from edges can be recovered."""
        value = None
        if len(wr.data) == 8:
            value = unpack_qword(wr.data)
        hb.emit_land(self.sim, qp, wr, chain=chain, value=value)

    def _check_reachable(self, remote_host: Host) -> None:
        """Raise :class:`_Unreachable` when the target cannot ACK."""
        if remote_host.crashed:
            raise _Unreachable(f"{remote_host.name} crashed (no ACK)")
        fabric = self.host.fabric
        if (
            fabric is not None
            and remote_host.fabric is fabric
            and not fabric.reachable(self.host.name, remote_host.name)
        ):
            raise _Unreachable(
                f"{remote_host.name} unreachable from {self.host.name} "
                f"(link partitioned)"
            )

    def _check_remote(
        self, remote_qp: QueuePair, wr: WorkRequest, n: int, need: AccessFlags
    ):
        mr = remote_qp.pd.lookup_rkey(wr.rkey)
        if mr is None:
            raise ProtectionError(f"rkey {wr.rkey:#x} unknown at target")
        mr.check_remote(wr.remote_addr, n, need)
        return mr

    def _do_write(self, qp, wr: WorkRequest, remote_qp, remote_host: Host):
        self._check_remote(remote_qp, wr, len(wr.data), AccessFlags.REMOTE_WRITE)
        # First byte arrives after one-way latency + remote NIC overhead.
        yield params.NET_BASE_LATENCY_US + params.RNIC_OP_OVERHEAD_US
        # Chunked landing: each MTU lands after its serialization time,
        # so a large object is visible *partially written* in between.
        offset = 0
        while offset < len(wr.data):
            chunk = wr.data[offset : offset + RNIC_MTU_BYTES]
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
        return None

    def _do_read(self, qp, wr: WorkRequest, remote_qp, remote_host: Host):
        self._check_remote(remote_qp, wr, wr.length, AccessFlags.REMOTE_READ)
        yield params.NET_BASE_LATENCY_US + params.RNIC_OP_OVERHEAD_US
        data = remote_host.cache.dma_read(wr.remote_addr, wr.length)
        self.bytes_dma += wr.length
        if self._hb:
            value = unpack_qword(data) if wr.length == 8 else None
            hb.emit_land(self.sim, qp, wr, value=value)
        # Response serialization + return latency.
        yield wr.length / params.RDMA_BANDWIDTH_BPUS + params.NET_BASE_LATENCY_US
        return data

    def _do_atomic(self, qp, wr: WorkRequest, remote_qp, remote_host: Host):
        if wr.remote_addr % 8:
            raise ProtectionError("atomic target must be 8-byte aligned")
        self._check_remote(remote_qp, wr, 8, AccessFlags.REMOTE_ATOMIC)
        # Atomics are RTT-bound, independent of payload.
        yield params.RDMA_ATOMIC_RTT_US
        original = unpack_qword(remote_host.memory.read(wr.remote_addr, 8))
        if wr.opcode is WrOpcode.COMP_SWAP:
            success = original == wr.compare
            if success:
                remote_host.cache.dma_write(wr.remote_addr, pack_qword(wr.swap_or_add))
            if self._hb:
                hb.emit_land(
                    self.sim, qp, wr,
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
        return None

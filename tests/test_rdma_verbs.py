"""Tests for the RDMA verbs layer: MRs, QPs, one-sided operations."""

import re

import pytest

from repro import params
from repro.errors import ProtectionError, RdmaError
from repro.net.topology import Cluster
from repro.rdma.cq import WcStatus
from repro.rdma.mr import AccessFlags, ProtectionDomain
from repro.rdma.qp import QpState, WorkRequest, WrOpcode
from repro.rdma.verbs import connect_qps, open_device
from repro.sim.core import Simulator

ALL_ACCESS = (
    AccessFlags.REMOTE_READ
    | AccessFlags.REMOTE_WRITE
    | AccessFlags.REMOTE_ATOMIC
    | AccessFlags.LOCAL_WRITE
)


@pytest.fixture
def rig():
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=2, with_control_host=False)
    a, b = cluster.hosts
    ctx_a, ctx_b = open_device(a), open_device(b)
    pd_a, pd_b = ctx_a.alloc_pd(), ctx_b.alloc_pd()
    addr = b.allocator.alloc(256 * 1024, align=8)
    mr = pd_b.reg_mr(addr, 256 * 1024, ALL_ACCESS)
    qp_a = ctx_a.create_qp(pd_a, ctx_a.create_cq())
    qp_b = ctx_b.create_qp(pd_b, ctx_b.create_cq())
    connect_qps(qp_a, qp_b)
    return sim, a, b, qp_a, qp_b, mr, addr


def run_wr(sim, qp, wr):
    def proc():
        completion = yield qp.post_send(wr)
        return completion

    return sim.run_process(proc())


class TestMr:
    def test_rkey_lookup(self):
        pd = ProtectionDomain(Simulator(), "dev")
        mr = pd.reg_mr(0x1000, 64, AccessFlags.REMOTE_READ)
        assert pd.lookup_rkey(mr.rkey) is mr
        assert pd.lookup_rkey(0xBAD) is None

    def test_dereg(self):
        pd = ProtectionDomain(Simulator(), "dev")
        mr = pd.reg_mr(0x1000, 64, AccessFlags.REMOTE_READ)
        pd.dereg_mr(mr)
        assert pd.lookup_rkey(mr.rkey) is None
        with pytest.raises(RdmaError):
            pd.dereg_mr(mr)

    def test_zero_length_rejected(self):
        pd = ProtectionDomain(Simulator(), "dev")
        with pytest.raises(RdmaError):
            pd.reg_mr(0x1000, 0, AccessFlags.REMOTE_READ)

    def test_check_remote_range(self):
        pd = ProtectionDomain(Simulator(), "dev")
        mr = pd.reg_mr(0x1000, 64, AccessFlags.REMOTE_WRITE)
        pd.check_remote(mr.rkey, 0x1000, 64, AccessFlags.REMOTE_WRITE)
        with pytest.raises(ProtectionError, match=r"\[0x1000,\+65\) outside MR \[0x1000,\+64\)"):
            pd.check_remote(mr.rkey, 0x1000, 65, AccessFlags.REMOTE_WRITE)
        with pytest.raises(ProtectionError, match="lacks <AccessFlags.REMOTE_ATOMIC: 8>"):
            pd.check_remote(mr.rkey, 0x1000, 8, AccessFlags.REMOTE_ATOMIC)
        with pytest.raises(ProtectionError, match="rkey 0xbad unknown at target"):
            pd.check_remote(0xBAD, 0x1000, 8, AccessFlags.REMOTE_WRITE)


class TestQpStateMachine:
    def test_fresh_qp_is_init(self, rig):
        sim, a, *_ = rig
        ctx = open_device(a)
        qp = ctx.create_qp(ctx.alloc_pd(), ctx.create_cq())
        assert qp.state is QpState.INIT

    def test_illegal_transition(self, rig):
        sim, a, *_ = rig
        ctx = open_device(a)
        qp = ctx.create_qp(ctx.alloc_pd(), ctx.create_cq())
        with pytest.raises(RdmaError):
            qp.modify(QpState.RTS)  # must pass through RTR

    def test_post_send_requires_rts(self, rig):
        sim, a, *_ = rig
        ctx = open_device(a)
        qp = ctx.create_qp(ctx.alloc_pd(), ctx.create_cq())
        with pytest.raises(RdmaError):
            qp.post_send(WorkRequest(opcode=WrOpcode.RDMA_WRITE))

    def test_double_connect_rejected(self, rig):
        _sim, _a, _b, qp_a, qp_b, *_ = rig
        with pytest.raises(RdmaError):
            connect_qps(qp_a, qp_b)

    def test_pd_device_mismatch(self, rig):
        sim, a, b, *_ = rig
        ctx_a = open_device(a)
        ctx_b = open_device(b)
        pd_b = ctx_b.alloc_pd()
        with pytest.raises(RdmaError):
            ctx_a.create_qp(pd_b, ctx_a.create_cq())


class TestOneSidedOps:
    def test_write_lands_in_remote_dram(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey,
            data=b"payload",
        ))
        assert completion.status is WcStatus.SUCCESS
        assert b.memory.read(addr, 7) == b"payload"

    def test_write_consumes_no_target_cpu(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey,
            data=b"x" * 100_000,
        ))
        assert b.cpu.busy_us == 0.0

    def test_read_returns_remote_bytes(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        b.memory.write(addr, b"remote-bytes")
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.RDMA_READ, remote_addr=addr, rkey=mr.rkey, length=12,
        ))
        assert completion.result == b"remote-bytes"

    def test_cas_success_and_failure(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.COMP_SWAP, remote_addr=addr, rkey=mr.rkey,
            compare=0, swap_or_add=7,
        ))
        assert completion.result == 0
        assert int.from_bytes(b.memory.read(addr, 8), "little") == 7
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.COMP_SWAP, remote_addr=addr, rkey=mr.rkey,
            compare=0, swap_or_add=99,
        ))
        assert completion.result == 7  # compare failed, no swap
        assert int.from_bytes(b.memory.read(addr, 8), "little") == 7

    def test_fetch_add(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        for expected_prior in (0, 5):
            completion = run_wr(sim, qp_a, WorkRequest(
                opcode=WrOpcode.FETCH_ADD, remote_addr=addr, rkey=mr.rkey,
                swap_or_add=5,
            ))
            assert completion.result == expected_prior

    def test_atomic_alignment_enforced(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.COMP_SWAP, remote_addr=addr + 4, rkey=mr.rkey,
            compare=0, swap_or_add=1,
        ))
        assert completion.status is WcStatus.REMOTE_ACCESS_ERROR

    def test_bad_rkey_errors_and_poisons_qp(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=0xBAD, data=b"x",
        ))
        assert completion.status is WcStatus.REMOTE_ACCESS_ERROR
        assert qp_a.state is QpState.ERROR
        flushed = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey, data=b"y",
        ))
        assert flushed.status is WcStatus.WR_FLUSH_ERROR

    def test_out_of_range_write_rejected(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr + 256 * 1024 - 2, rkey=mr.rkey,
            data=b"too-long",
        ))
        assert completion.status is WcStatus.REMOTE_ACCESS_ERROR

    def test_write_timing_scales_with_size(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig

        def timed(size):
            start = sim.now
            run_wr(sim, qp_a, WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey,
                data=b"z" * size,
            ))
            return sim.now - start

        small = timed(8)
        large = timed(8000)
        assert small >= params.RDMA_SMALL_OP_RTT_US
        assert large > small
        assert large - small == pytest.approx(
            (8000 - 8) / params.RDMA_BANDWIDTH_BPUS, rel=0.2
        )

    def test_large_write_lands_progressively(self, rig):
        """Mid-transfer, remote memory holds a torn (partial) image."""
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        size = 64 * 1024
        done = qp_a.post_send(WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey,
            data=b"\xff" * size,
        ))

        observations = []

        def observer():
            while not done.triggered:
                first = b.memory.read(addr, 1)
                last = b.memory.read(addr + size - 1, 1)
                observations.append((first, last))
                yield sim.timeout(0.5)

        sim.spawn(observer())
        sim.run()
        torn = [(f, l) for f, l in observations if f == b"\xff" and l == b"\x00"]
        assert torn, "expected a window where the write was partially visible"

    def test_send_recv(self, rig):
        sim, a, b, qp_a, qp_b, mr, addr = rig
        qp_b.post_recv(addr + 1024, 64)
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.SEND, data=b"two-sided",
        ))
        assert completion.status is WcStatus.SUCCESS
        assert b.memory.read(addr + 1024, 9) == b"two-sided"
        recv = qp_b.cq.poll()
        assert recv is not None and recv.opcode == "recv"

    def test_send_without_recv_errors(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        completion = run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.SEND, data=b"nobody-listening",
        ))
        assert completion.status is WcStatus.REMOTE_ACCESS_ERROR


class TestFailedWqe:
    """A WR that fails inside the RNIC completes; it never strands its poster."""

    def _past_the_end(self, host, qp_b):
        """An MR reaching 4 KiB past the end of ``host``'s DRAM, and a
        128-byte WRITE into it that passes the protection check and
        then runs off the bank."""
        end = host.memory.end
        mr = qp_b.pd.reg_mr(end - 64, 4096, AccessFlags.REMOTE_WRITE)
        wr = WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=end - 64, rkey=mr.rkey,
            data=b"\x5a" * 128,
        )
        message = f"access [{end - 64:#x}, {end + 64:#x}) outside [0x1000, {end:#x})"
        return wr, message

    def test_a_dma_fault_is_a_remote_op_error_completion(self, rig):
        sim, _a, b, qp_a, qp_b, _mr, _addr = rig
        wr, message = self._past_the_end(b, qp_b)
        completion = run_wr(sim, qp_a, wr)
        assert completion.status is WcStatus.REMOTE_OP_ERROR
        assert completion.error == message
        assert (completion.wr_id, completion.opcode) == (wr.wr_id, "write")
        assert qp_a.state is QpState.ERROR
        assert (qp_a.posted, qp_a.completed) == (1, 1)
        assert qp_a.cq.poll() is completion
        assert not sim.failed_processes

    def test_a_dma_fault_mid_chain_names_the_wr_it_hit(self, rig):
        sim, _a, b, qp_a, qp_b, mr, addr = rig
        wr, message = self._past_the_end(b, qp_b)
        first = WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey, data=b"ok",
        )

        def post():
            return (yield qp_a.post_send_batch([first, wr]))

        completion = sim.run_process(post())
        assert completion.status is WcStatus.REMOTE_OP_ERROR
        assert (completion.wr_id, completion.chained, completion.error) == (
            wr.wr_id, 2, message,
        )
        assert b.memory.read(addr, 2) == b"ok"  # the prefix landed
        assert qp_a.state is QpState.ERROR
        assert (qp_a.posted, qp_a.completed) == (2, 2)
        assert not sim.failed_processes

    def test_remote_sync_raises_instead_of_hanging(self, testbed):
        sync = testbed.codeflow.sync
        wr, message = self._past_the_end(testbed.host, sync.qp.remote)
        sync.rkey = wr.rkey
        with pytest.raises(RdmaError, match=re.escape(f"WRITE failed: {message}")):
            testbed.sim.run_process(sync.write(wr.remote_addr, wr.data))
        assert sync.qp.state is QpState.ERROR
        # Only the poster failed -- with the error -- not the WQE.
        assert [name for name, _err in testbed.sim.failed_processes] == ["write"]

    def test_a_rejected_chain_is_not_counted_as_posted(self, rig):
        sim, _a, _b, qp_a, _qp_b, mr, addr = rig
        read = WorkRequest(
            opcode=WrOpcode.RDMA_READ, remote_addr=addr, rkey=mr.rkey, length=8,
        )
        with pytest.raises(RdmaError, match="RDMA_WRITE only"):
            qp_a.post_send_batch([read])
        sim.run()
        assert (qp_a.posted, qp_a.completed) == (0, 0)


class TestCq:
    def test_completion_lands_in_cq(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig
        run_wr(sim, qp_a, WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey, data=b"x",
        ))
        completion = qp_a.cq.poll()
        assert completion is not None
        assert completion.status is WcStatus.SUCCESS
        assert qp_a.cq.poll() is None

    def test_blocking_wait(self, rig):
        sim, a, b, qp_a, _qp_b, mr, addr = rig

        def waiter():
            completion = yield qp_a.cq.wait()
            return completion.status

        process = sim.spawn(waiter())
        qp_a.post_send(WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=mr.rkey, data=b"x",
        ))
        sim.run()
        assert process.value is WcStatus.SUCCESS

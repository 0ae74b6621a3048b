"""Deploy fast-path tests: WR chains, batching, caches, compile dedup.

Covers the pipelined deploy machinery layer by layer:

* RNIC chain execution -- selective signaling (one CQE per doorbell),
  per-WR protection checks mid-chain, crash-torn MTU prefixes;
* ``RemoteSync.install`` without a commit -- fault-hook integration
  and whole-window retry under the RetryPolicy;
* the linked-image cache -- content keying (the CRC-residue trap),
  cross-target hits, and invalidation when address reuse after a warm
  reboot changes the GOT layout;
* single-flight compile dedup for concurrent injects of one program;
* remote-state equivalence between the serial and pipelined bodies.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import params
from repro.core.faults import FaultInjector, FaultKind
from repro.core.xstate import XStateSpec
from repro.ebpf.maps import MapType
from repro.ebpf.stress import make_stress_program
from repro.errors import RdmaError, TransientFault
from repro.exp.harness import make_testbed
from repro.params import DEFAULT
from repro.rdma.cq import WcStatus
from repro.rdma.qp import QpState, WorkRequest, WrOpcode
from repro.rdma.rnic import RNIC_MTU_BYTES


def _post(qp, wrs):
    completion = yield qp.post_send_batch(wrs)
    return completion


def _drain(cq):
    while cq.poll() is not None:
        pass


def _payload(length, phase=0):
    """Deterministic zero-free bytes (zeros mark never-written memory)."""
    return bytes((index + phase) % 255 + 1 for index in range(length))


@pytest.mark.arm(pipelined_deploy=True)
class TestWrChaining:
    def test_chain_retires_under_one_cqe(self, testbed):
        bed = testbed
        sync = bed.codeflow.sync
        addr = bed.codeflow.code_allocator.alloc(3 * 64, align=64)
        wrs = [
            WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr + i * 64,
                rkey=sync.rkey, data=_payload(64, phase=i),
                wr_id=next(bed.sim.ids.wr),
            )
            for i in range(3)
        ]
        bed.sim.run()  # drain bootstrap traffic before counting CQEs
        _drain(sync.qp.cq)

        completion = bed.sim.run_process(_post(sync.qp, wrs))

        assert completion.status is WcStatus.SUCCESS
        assert completion.chained == 3
        assert completion.wr_id == wrs[-1].wr_id  # the signaled tail
        assert len(sync.qp.cq) == 1  # selective signaling: one CQE total
        for i in range(3):
            assert bed.host.memory.read(addr + i * 64, 64) == _payload(
                64, phase=i
            )

    def test_one_doorbell_beats_serial_writes(self, testbed):
        bed = testbed
        sync = bed.codeflow.sync
        addr = bed.codeflow.code_allocator.alloc(16 * 64, align=64)
        ops = [
            (addr + i * 64, _payload(64, phase=i)) for i in range(8)
        ]
        bed.sim.run()

        mark = bed.sim.now
        bed.sim.run_process(sync.install(ops, None, 0, 0, []))
        batched_us = bed.sim.now - mark

        mark = bed.sim.now
        for op_addr, data in ops:
            bed.sim.run_process(sync.write(op_addr + 8 * 64, data))
        serial_us = bed.sim.now - mark

        # One doorbell + one first-byte latency + one ACK amortized over
        # the chain vs paid per WR: the chain must at least halve it.
        assert batched_us < serial_us / 2

    def test_empty_and_mixed_chains_rejected(self, testbed):
        sync = testbed.codeflow.sync
        with pytest.raises(RdmaError):
            sync.qp.post_send_batch([])
        mixed = [
            WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=0, rkey=sync.rkey,
                data=b"x",
            ),
            WorkRequest(
                opcode=WrOpcode.RDMA_READ, remote_addr=0, rkey=sync.rkey,
                length=8,
            ),
        ]
        with pytest.raises(RdmaError):
            sync.qp.post_send_batch(mixed)

    def test_protection_error_mid_chain_keeps_prefix(self, testbed):
        bed = testbed
        sync = bed.codeflow.sync
        addr = bed.codeflow.code_allocator.alloc(3 * 64, align=64)
        wrs = [
            WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr,
                rkey=sync.rkey, data=_payload(64),
            ),
            WorkRequest(  # bogus rkey: fails when the target NIC places it
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr + 64,
                rkey=0xDEAD, data=_payload(64, phase=1),
            ),
            WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr + 128,
                rkey=sync.rkey, data=_payload(64, phase=2),
            ),
        ]
        bed.sim.run()

        completion = bed.sim.run_process(_post(sync.qp, wrs))

        assert completion.status is WcStatus.REMOTE_ACCESS_ERROR
        assert completion.chained == 3
        assert completion.wr_id == wrs[1].wr_id  # names the failed WR
        # WR 0 landed before the chain died; WR 2 never executed.
        assert bed.host.memory.read(addr, 64) == _payload(64)
        assert bed.host.memory.read(addr + 128, 64) == bytes(64)
        assert sync.qp.state is QpState.ERROR

    def test_crash_mid_chain_lands_exact_mtu_prefix(self, testbed):
        bed = testbed
        sync = bed.codeflow.sync
        total = 2 * RNIC_MTU_BYTES + 1808
        addr = bed.codeflow.code_allocator.alloc(total, align=64)
        payload = _payload(total)
        bed.sim.run()

        # Crash the target between the first and second chunk landing.
        first_land_us = (
            params.RDMA_DOORBELL_US + params.RNIC_OP_OVERHEAD_US
            + params.NET_BASE_LATENCY_US + params.RNIC_OP_OVERHEAD_US
            + RNIC_MTU_BYTES / params.RDMA_BANDWIDTH_BPUS
        )

        def crasher():
            yield bed.sim.timeout(
                first_land_us
                + RNIC_MTU_BYTES / params.RDMA_BANDWIDTH_BPUS / 2
            )
            bed.host.crash()

        proc = bed.sim.spawn(
            sync.install([(addr, payload)], None, 0, 0, []), name="torn"
        )
        bed.sim.spawn(crasher(), name="crasher")
        bed.sim.run()

        with pytest.raises(TransientFault):
            _ = proc.value
        # Exactly one MTU chunk landed; the unACKed remainder is gone.
        assert bed.host.memory.read(addr, RNIC_MTU_BYTES) == payload[
            :RNIC_MTU_BYTES
        ]
        assert bed.host.memory.read(
            addr + RNIC_MTU_BYTES, total - RNIC_MTU_BYTES
        ) == bytes(total - RNIC_MTU_BYTES)

        # Whole-batch retry after recovery overwrites the torn prefix.
        bed.host.recover()
        bed.sim.run_process(sync.install([(addr, payload)], None, 0, 0, []))
        assert bed.host.memory.read(addr, total) == payload


@pytest.mark.arm(pipelined_deploy=True)
class TestWriteBatchFaults:
    def test_transient_fault_retries_whole_batch(self, testbed):
        bed = testbed
        codeflow = bed.codeflow
        addr = codeflow.code_allocator.alloc(2 * 64, align=64)
        ops = [(addr, _payload(64)), (addr + 64, _payload(64, phase=1))]
        injector = FaultInjector(codeflow)
        injector.attach()
        injector.arm(FaultKind.TRANSIENT)
        bed.sim.run()

        mark = bed.sim.now
        try:
            bed.sim.run_process(codeflow.sync.install(ops, None, 0, 0, []))
        finally:
            injector.detach()

        assert [r.kind for r in injector.injected] == [FaultKind.TRANSIENT]
        # The failed attempt burned the transport timeout before the
        # retry re-landed every WR of the batch.
        assert bed.sim.now - mark > params.RDMA_RETRY_TIMEOUT_US
        assert bed.host.memory.read(addr, 64) == _payload(64)
        assert bed.host.memory.read(addr + 64, 64) == _payload(64, phase=1)

    def test_torn_write_fault_tears_batched_image(self, testbed):
        bed = testbed
        codeflow = bed.codeflow
        total = 1000
        addr = codeflow.code_allocator.alloc(total, align=64)
        payload = _payload(total)
        injector = FaultInjector(codeflow)
        injector.attach()
        injector.arm(FaultKind.TORN_WRITE)
        bed.sim.run()

        try:
            bed.sim.run_process(
                codeflow.sync.install([(addr, payload)], None, 0, 0, [])
            )
        finally:
            injector.detach()

        landed = bed.host.memory.read(addr, total)
        assert landed != payload
        cut = next(i for i in range(total) if landed[i] != payload[i])
        assert 0 < cut < total
        assert landed[cut:] == bytes(total - cut)  # prefix-only tear


class TestSingleFlightCompile:
    def test_concurrent_injects_compile_once(self, testbed2):
        """Two targets spawn the same inject concurrently: one compile."""
        bed = testbed2
        program = make_stress_program(600, seed=21, name="dup")
        procs = [
            bed.sim.spawn(
                bed.control.inject(codeflow, program, "ingress"),
                name=f"inject:{codeflow.sandbox.name}",
            )
            for codeflow in bed.codeflows
        ]
        bed.sim.run()

        for proc in procs:
            assert proc.value.total_us > 0  # both deploys completed
        assert bed.control.compiles_run == 1
        assert bed.control.validations_run == 1
        assert bed.control.prepare_coalesced == 1
        for sandbox in bed.sandboxes:
            execution, _ = sandbox.run_hook("ingress", bytes(256))
            assert execution is not None


@pytest.mark.arm(pipelined_deploy=True)
class TestLinkedImageCache:
    def test_distinct_programs_get_distinct_keys(self, testbed):
        """Regression: keys must hash the payload, not the full image.

        Every JIT image ends with its own CRC32 trailer, and
        crc32(data + crc32(data)) is the same residue constant for any
        data -- hashing the full image once collapsed all cache keys
        onto one entry and served v1's bytes for v2.
        """
        bed = testbed
        codeflow = bed.codeflow
        entries = [
            bed.sim.run_process(
                bed.control.prepare_for(
                    codeflow, make_stress_program(600, seed=seed, name="app")
                )
            )
            for seed in (5, 6)
        ]
        keys = [bed.control.artifacts.link_key(codeflow, e.binary) for e in entries]
        assert keys[0] != keys[1]
        assert keys[0][0] != keys[1][0]  # the content CRC itself differs

    def test_second_target_hits_cache(self, testbed2):
        bed = testbed2
        program = make_stress_program(600, seed=5, name="hit")
        for codeflow in bed.codeflows:
            bed.sim.run_process(
                bed.control.inject(codeflow, program, "ingress")
            )
        assert bed.control.link_cache_misses == 1
        assert bed.control.link_cache_hits == 1
        results = [
            sandbox.run_hook("ingress", bytes(256))[0]
            for sandbox in bed.sandboxes
        ]
        assert results[0] is not None and results[0] == results[1]

    def test_address_reuse_after_warm_reboot_misses(self, testbed):
        """Layout churn must miss: the fingerprint covers resolved addrs.

        A decoy XState pushes ``stress_map`` to the second scratchpad
        chunk; after a warm reboot only ``stress_map`` is redeployed, so
        it lands on the decoy's old address.  Serving the pre-reboot
        cached image would patch the map relocation with a stale
        address -- the new layout has to be a cache miss.
        """
        bed = testbed
        codeflow = bed.codeflow
        program = make_stress_program(600, seed=5, with_map=True, name="mapper")
        decoy = XStateSpec("decoy", MapType.ARRAY, 4, 8, 4)
        state = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)

        bed.sim.run_process(codeflow.deploy_xstate(decoy))
        bed.sim.run_process(codeflow.deploy_xstate(state))
        old_addr = codeflow.scratchpad.by_name("stress_map").data_addr
        bed.sim.run_process(bed.control.inject(codeflow, program, "ingress"))
        assert bed.control.link_cache_misses == 1
        misses_before = bed.control.link_cache_misses
        hits_before = bed.control.link_cache_hits

        bed.sandbox.warm_reboot()
        codeflow.reset_after_reboot()
        bed.sim.run_process(codeflow.stamp_epoch(bed.control.epoch))
        bed.sim.run_process(codeflow.deploy_xstate(state))
        new_addr = codeflow.scratchpad.by_name("stress_map").data_addr
        assert new_addr != old_addr  # the reuse the fingerprint must catch

        bed.sim.run_process(bed.control.inject(codeflow, program, "ingress"))
        assert bed.control.link_cache_hits == hits_before
        assert bed.control.link_cache_misses == misses_before + 1
        execution, _ = bed.sandbox.run_hook("ingress", bytes(256))
        assert execution is not None


class TestModeEquivalence:
    def _deploy(self, pipelined):
        bed = make_testbed(config=replace(DEFAULT, pipelined_deploy=pipelined))
        program = make_stress_program(600, seed=9, name="same")
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        record = bed.codeflow.deployed["same"]
        image = bed.host.memory.read(record.code_addr, record.code_len)
        hook = bed.sandbox.hook_table.read_pointer("ingress")
        execution, _ = bed.sandbox.run_hook("ingress", bytes(256))
        return record, image, hook == record.code_addr, execution

    def test_serial_and_pipelined_land_identical_state(self):
        fast_record, fast_image, fast_hooked, fast_result = self._deploy(True)
        slow_record, slow_image, slow_hooked, slow_result = self._deploy(False)
        assert fast_image == slow_image
        assert fast_hooked and slow_hooked
        assert fast_result == slow_result
        assert fast_record.code_addr == slow_record.code_addr
        assert fast_record.metadata_slot == slow_record.metadata_slot

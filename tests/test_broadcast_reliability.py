"""Deploy-reliability tests: transactional abort, retry absorption,
quorum mode, deadlines, and the node-crash/partition fault model.

The broadcast invariants under test (paper §4, §2.2):

* any failed leg triggers all-or-nothing abort -- succeeded targets
  revert to their prior image (or detach if freshly deployed);
* no target is ever stranded behind a raised bubble flag;
* transient transport faults are absorbed by the retry policy instead
  of aborting the transaction;
* ``allow_partial=True`` opts into quorum-mode degradation instead.

``RDX_FAULT_SEED`` (CI fault-matrix) reseeds the campaign smoke test so
recovery logic is exercised under several fault schedules.
"""

import os

import pytest

from repro.core.api import rdx_broadcast
from repro.core.faults import FaultInjector, FaultKind
from repro.ebpf.stress import make_stress_program
from repro.errors import BroadcastAborted, ConsistencyError
from repro.exp.fault_campaign import run_fault_campaign
from repro.rdma.rnic import RNIC_MTU_BYTES

FAULT_SEED = int(os.environ.get("RDX_FAULT_SEED", "0"))


def versioned(bed, version, size=120):
    """One program per target; same names across versions so a v2
    deploy chains onto v1's history (making rollback possible)."""
    return [
        make_stress_program(
            size + version, seed=version * 10 + i, name=f"app{i}"
        )
        for i in range(len(bed.codeflows))
    ]


def counter_total(bed, name):
    """Sum a counter across all label sets."""
    return sum(
        row["value"]
        for row in bed.obs.registry.snapshot()
        if row["name"] == name and row["type"] == "counter"
    )


def broadcast_expecting_abort(bed, programs, **kwargs):
    process = bed.sim.spawn(
        rdx_broadcast(bed.codeflows, programs, "ingress", **kwargs)
    )
    bed.sim.run()
    with pytest.raises(BroadcastAborted) as excinfo:
        _ = process.value
    return excinfo.value


def code_addrs(bed):
    return [
        cf.deployed[f"app{i}"].code_addr
        for i, cf in enumerate(bed.codeflows)
    ]


class TestTransactionalAbort:
    def test_abort_rolls_back_every_target_to_prior_image(self, testbed2):
        """Torn write on one target mid-upgrade: *both* targets must
        end on the v1 image -- the survivor via the abort path, the
        corrupted target via its own verify-failure undo."""
        bed = testbed2
        bed.sim.run_process(
            rdx_broadcast(bed.codeflows, versioned(bed, 1), "ingress")
        )
        v1_addrs = code_addrs(bed)

        injector = FaultInjector(bed.codeflows[1], seed=FAULT_SEED)
        injector.arm(FaultKind.TORN_WRITE)
        injector.attach()
        try:
            err = broadcast_expecting_abort(bed, versioned(bed, 2))
        finally:
            injector.detach()

        assert err.result.aborted
        survivor = err.result.outcomes[0]
        assert survivor.rolled_back and not survivor.detached
        assert err.result.outcomes[1].error_kind == "ConsistencyError"
        # All-or-nothing: every hook points at its v1 image again.
        assert code_addrs(bed) == v1_addrs
        assert all(not sb.bubble_active() for sb in bed.sandboxes)
        # The rolled-back data path still runs v1 logic.
        out, _ = bed.sandboxes[0].run_hook("ingress", bytes(256))
        assert out is not None

    def test_fresh_deploy_abort_detaches(self, testbed2):
        """With no prior version to roll back to, abort detaches: the
        group ends exactly as it started -- nothing deployed."""
        bed = testbed2
        injector = FaultInjector(bed.codeflows[1], seed=FAULT_SEED)
        injector.arm(FaultKind.TORN_WRITE)
        injector.attach()
        try:
            err = broadcast_expecting_abort(bed, versioned(bed, 1))
        finally:
            injector.detach()

        survivor = err.result.outcomes[0]
        assert survivor.detached and not survivor.rolled_back
        assert all(not cf.deployed for cf in bed.codeflows)
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_allow_partial_keeps_survivors_live(self, testbed2):
        """Quorum mode: the survivor keeps v2, the failed target
        reverts, and the result is marked degraded instead of raising."""
        bed = testbed2
        bed.sim.run_process(
            rdx_broadcast(bed.codeflows, versioned(bed, 1), "ingress")
        )
        v1_addrs = code_addrs(bed)

        injector = FaultInjector(bed.codeflows[1], seed=FAULT_SEED)
        injector.arm(FaultKind.TORN_WRITE)
        injector.attach()
        try:
            result = bed.sim.run_process(
                rdx_broadcast(
                    bed.codeflows, versioned(bed, 2), "ingress",
                    allow_partial=True,
                )
            )
        finally:
            injector.detach()

        assert result.degraded and not result.aborted
        assert result.outcomes[0].ok
        # Survivor moved to the v2 image; the corrupted target is back
        # on v1 (verify-failure undo), not left running torn code.
        new_addrs = code_addrs(bed)
        assert new_addrs[0] != v1_addrs[0]
        assert new_addrs[1] == v1_addrs[1]
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_deadline_expiry_aborts(self, testbed2):
        """A deadline far below the deploy cost fails every leg with
        DeadlineExceeded; bubbles still drop."""
        bed = testbed2
        err = broadcast_expecting_abort(
            bed, versioned(bed, 1), deadline_us=0.5
        )
        kinds = {o.error_kind for o in err.result.outcomes}
        assert kinds == {"DeadlineExceeded"}
        assert all(not sb.bubble_active() for sb in bed.sandboxes)


class TestCrashModel:
    def test_node_crash_aborts_then_recovers(self, testbed2):
        """A target that crashes on its first op never ACKs: its leg
        exhausts transport retries, the broadcast aborts, and after
        recovery the same upgrade commits cleanly."""
        bed = testbed2
        injector = FaultInjector(bed.codeflows[1], seed=FAULT_SEED)
        injector.arm(FaultKind.NODE_CRASH)
        injector.attach()
        try:
            err = broadcast_expecting_abort(bed, versioned(bed, 1))
        finally:
            injector.detach()

        assert bed.codeflows[1].sandbox.host.crashed
        failed = err.result.outcomes[1]
        assert not failed.ok and failed.error_kind
        # The reachable target was fully undone.
        assert not bed.codeflows[0].deployed
        assert not bed.sandboxes[0].bubble_active()

        injector.recover_target()
        result = bed.sim.run_process(
            rdx_broadcast(bed.codeflows, versioned(bed, 1), "ingress")
        )
        assert not result.aborted
        assert all(o.ok for o in result.outcomes)

    def test_link_partition_aborts_then_heals(self, testbed2):
        bed = testbed2
        injector = FaultInjector(bed.codeflows[1], seed=FAULT_SEED)
        injector.arm(FaultKind.LINK_PARTITION)
        injector.attach()
        try:
            err = broadcast_expecting_abort(bed, versioned(bed, 1))
        finally:
            injector.detach()

        assert not err.result.outcomes[1].ok
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

        injector.heal_partition()
        result = bed.sim.run_process(
            rdx_broadcast(bed.codeflows, versioned(bed, 1), "ingress")
        )
        assert not result.aborted
        assert all(o.ok for o in result.outcomes)


class TestRetryAbsorption:
    def test_transient_fault_absorbed_and_commits(self, testbed2):
        """A one-shot unACKed op is a retry, not an abort."""
        bed = testbed2
        absorbed_before = counter_total(bed, "rdx.retry.absorbed")
        injector = FaultInjector(bed.codeflows[1], seed=FAULT_SEED)
        injector.arm(FaultKind.TRANSIENT)
        injector.attach()
        try:
            result = bed.sim.run_process(
                rdx_broadcast(bed.codeflows, versioned(bed, 1), "ingress")
            )
        finally:
            injector.detach()

        assert not result.aborted and not result.degraded
        assert all(o.ok for o in result.outcomes)
        assert counter_total(bed, "rdx.retry.absorbed") > absorbed_before
        assert counter_total(bed, "rdx.broadcast.abort") == 0

    def test_verify_catches_stale_read(self, testbed2):
        """A stale verify readback (response carrying pre-write bytes)
        must fail the CRC check, not silently pass a corrupt image."""
        bed = testbed2
        bed.sim.run_process(
            rdx_broadcast(bed.codeflows, versioned(bed, 1), "ingress")
        )
        v1_addrs = code_addrs(bed)
        injector = FaultInjector(bed.codeflows[1], seed=FAULT_SEED)
        injector.arm(FaultKind.STALE_READ)
        injector.attach()
        try:
            err = broadcast_expecting_abort(bed, versioned(bed, 2))
        finally:
            injector.detach()
        assert isinstance(err, ConsistencyError)
        assert code_addrs(bed) == v1_addrs


class TestCampaignSmoke:
    def test_campaign_never_strands_a_bubble(self):
        result = run_fault_campaign(n_hosts=2, rounds=4, seed=FAULT_SEED)
        assert result.stranded == 0
        assert result.committed + result.aborts == result.rounds_run
        assert all(r.bubbles_clear for r in result.rounds)


@pytest.mark.arm(pipelined_deploy=True)
class TestTornChainAbort:
    def test_crash_mid_chain_aborts_then_rebroadcast_succeeds(self, testbed2):
        """A target dying mid-WR-chain strands exactly the landed MTU
        prefix; the broadcast aborts all-or-nothing, and a rebroadcast
        after recovery re-lands every WR over the torn bytes."""
        bed = testbed2
        bed.sim.run_process(
            rdx_broadcast(bed.codeflows, versioned(bed, 1), "ingress")
        )
        v1_addrs = code_addrs(bed)

        # Fail-stop target 1 right after the first full MTU chunk of
        # its v2 image lands (v2 images span multiple chunks).
        victim = bed.sandboxes[1].host
        original = victim.cache.dma_write
        seen = {}

        def crash_after_first_chunk(addr, data):
            original(addr, data)
            if len(data) == RNIC_MTU_BYTES and "addr" not in seen:
                seen["addr"] = addr
                victim.crash()

        victim.cache.dma_write = crash_after_first_chunk
        try:
            err = broadcast_expecting_abort(
                bed, versioned(bed, 2, size=1_300)
            )
        finally:
            victim.cache.dma_write = original

        assert victim.crashed
        assert not err.result.outcomes[1].ok
        # Exactly one MTU chunk of the dead leg's image landed; the
        # chain's later chunks and WRs never executed.
        stranded = victim.memory.read(seen["addr"], 2 * RNIC_MTU_BYTES)
        assert any(stranded[:RNIC_MTU_BYTES])
        assert stranded[RNIC_MTU_BYTES:] == bytes(RNIC_MTU_BYTES)
        # The reachable target was rolled back to its v1 image.
        assert code_addrs(bed) == v1_addrs

        FaultInjector(bed.codeflows[1], seed=FAULT_SEED).recover_target()
        result = bed.sim.run_process(
            rdx_broadcast(
                bed.codeflows, versioned(bed, 3, size=1_300), "ingress"
            )
        )
        assert all(outcome.ok for outcome in result.outcomes)
        assert not any(sb.bubble_active() for sb in bed.sandboxes)
        for sandbox in bed.sandboxes:
            execution, _ = sandbox.run_hook("ingress", bytes(256))
            assert execution is not None

"""Tests for the remote synchronization primitives (§3.5)."""

import pytest

from repro.core.api import rdx_cc_event, rdx_tx
from repro.errors import RdmaError
from repro.ebpf.jit import jit_compile
from repro.ebpf.asm import Asm
from repro.ebpf import opcodes as op
from repro.ebpf.program import BpfProgram
from repro.mem.layout import unpack_qword


class TestRawOps:
    def test_write_and_read(self, testbed):
        addr = testbed.codeflow.manifest.scratchpad_addr

        def flow():
            yield from testbed.codeflow.sync.write(addr, b"sync-bytes")
            data = yield from testbed.codeflow.sync.read(addr, 10)
            return data

        assert testbed.sim.run_process(flow()) == b"sync-bytes"

    def test_cas(self, testbed):
        addr = testbed.sandbox.lock_addr

        def flow():
            prior1 = yield from testbed.codeflow.sync.cas(addr, 0, 5)
            prior2 = yield from testbed.codeflow.sync.cas(addr, 0, 9)
            return prior1, prior2

        prior1, prior2 = testbed.sim.run_process(flow())
        assert prior1 == 0
        assert prior2 == 5  # second CAS failed

    def test_fetch_add(self, testbed):
        # The epoch word now carries the control plane's fencing token,
        # so borrow the (still-zero) bubble word as the scratch qword.
        addr = testbed.sandbox.bubble_addr

        def flow():
            yield from testbed.codeflow.sync.fetch_add(addr, 3)
            prior = yield from testbed.codeflow.sync.fetch_add(addr, 3)
            return prior

        assert testbed.sim.run_process(flow()) == 3


class TestRdxTx:
    def test_atomic_visibility_flip(self, testbed):
        """A polling reader never decodes a partial image through the
        committed pointer -- §3.5 issue (1)."""
        sandbox = testbed.sandbox
        sim = testbed.sim
        program = BpfProgram(Asm().mov_imm(op.R0, 7).exit_().build(), name="tx")
        binary = jit_compile(program, arch=sandbox.arch)
        linked = binary.link(lambda r: sandbox.got.address_of(r.symbol))

        code_addr = testbed.codeflow.code_allocator.alloc(len(linked.code), 64)
        hook_addr = sandbox.hook_table.slot_addr("ingress")

        observations = []

        def poller():
            for _ in range(400):
                pointer = unpack_qword(sandbox.host.memory.read(hook_addr, 8))
                if pointer:
                    # Pointer visible => image must decode completely.
                    result, _ = sandbox.run_hook("ingress", b"\x00" * 64)
                    observations.append(result.r0)
                yield sim.timeout(0.25)

        def injector():
            yield sim.timeout(5)
            yield from rdx_tx(
                testbed.codeflow, linked.code, code_addr, hook_addr, code_addr,
                expect=0,
            )
            yield from rdx_cc_event(testbed.codeflow, hook_addr, 8)

        sim.spawn(poller(), name="poller")
        sim.run_process(injector())
        sim.run()
        assert observations, "pointer never became visible"
        assert set(observations) == {7}
        assert not sandbox.crashed

    def test_tx_cas_abort_on_mismatch(self, testbed):
        addr = testbed.codeflow.manifest.scratchpad_addr
        qword = testbed.sandbox.bubble_addr

        def flow():
            prior = yield from rdx_tx(
                testbed.codeflow, b"x", addr, qword, 0x42, expect=999
            )
            return prior

        prior = testbed.sim.run_process(flow())
        assert prior == 0  # observed value returned
        # And the swap did NOT happen, nor counts as a transaction.
        assert unpack_qword(testbed.host.memory.read(qword, 8)) == 0
        assert testbed.codeflow.sync.tx_count == 0

    def test_tx_counts(self, testbed):
        addr = testbed.codeflow.manifest.scratchpad_addr

        def flow():
            yield from rdx_tx(
                testbed.codeflow, b"y", addr, testbed.sandbox.bubble_addr, 1,
                expect=0,
            )

        testbed.sim.run_process(flow())
        assert testbed.codeflow.sync.tx_count == 1


class TestCcEvent:
    def test_flush_exposes_dma_bytes(self, testbed):
        sandbox = testbed.sandbox
        addr = testbed.codeflow.manifest.scratchpad_addr
        # CPU caches the line with old bytes.
        sandbox.host.cache.cpu_read(addr, 8)

        def flow():
            yield from testbed.codeflow.sync.write(addr, b"NEWBYTES")
            stale = sandbox.host.cache.cpu_read(addr, 8)
            yield from rdx_cc_event(testbed.codeflow, addr, 8)
            fresh = sandbox.host.cache.cpu_read(addr, 8)
            return stale, fresh

        stale, fresh = testbed.sim.run_process(flow())
        assert stale == bytes(8)
        assert fresh == b"NEWBYTES"

    def test_cc_event_is_microseconds(self, testbed):
        addr = testbed.codeflow.manifest.scratchpad_addr

        def flow():
            start = testbed.sim.now
            yield from rdx_cc_event(testbed.codeflow, addr, 64)
            return testbed.sim.now - start

        assert testbed.sim.run_process(flow()) < 5.0

    def test_no_target_cpu_charged(self, testbed):
        addr = testbed.codeflow.manifest.scratchpad_addr
        before = testbed.host.cpu.busy_us

        def flow():
            yield from testbed.codeflow.sync.write(addr, b"z" * 4096)
            yield from rdx_cc_event(testbed.codeflow, addr, 4096)

        testbed.sim.run_process(flow())
        testbed.sim.run()
        assert testbed.host.cpu.busy_us == before


class TestMutualExclusion:
    def test_lock_unlock(self, testbed):
        def flow():
            attempts = yield from testbed.codeflow.sync.lock(0xAA)
            yield from testbed.codeflow.sync.unlock(0xAA)
            return attempts

        assert testbed.sim.run_process(flow()) == 1

    def test_lock_blocks_cpu_side(self, testbed):
        def flow():
            yield from testbed.codeflow.sync.lock(0xAA)

        testbed.sim.run_process(flow())
        assert not testbed.sandbox.cpu_try_lock(owner=2)

    def test_cpu_lock_blocks_rnic_side(self, testbed):
        assert testbed.sandbox.cpu_try_lock(owner=3)

        def flow():
            attempts = yield from testbed.codeflow.sync.lock(0xAA, max_attempts=3)
            return attempts

        process = testbed.sim.spawn(flow())
        testbed.sim.run()
        with pytest.raises(RdmaError, match="not acquired"):
            _ = process.value

    def test_lock_retries_until_released(self, testbed):
        sandbox = testbed.sandbox
        assert sandbox.cpu_try_lock(owner=3)

        def releaser():
            yield testbed.sim.timeout(20)
            sandbox.cpu_unlock(owner=3)

        def flow():
            attempts = yield from testbed.codeflow.sync.lock(0xAA, max_attempts=50)
            return attempts

        testbed.sim.spawn(releaser())
        attempts = testbed.sim.run_process(flow())
        assert attempts > 1

    def test_two_contenders_both_acquire(self, testbed):
        """Regression: contenders back off with seeded jitter, so two
        of them never retry in lockstep until exhaustion -- both must
        eventually hold the lock."""
        sync = testbed.codeflow.sync
        acquisitions = []

        def contender(token):
            attempts = yield from sync.lock(token, max_attempts=64)
            acquisitions.append((token, attempts))
            yield testbed.sim.timeout(10)
            yield from sync.unlock(token)

        testbed.sim.spawn(contender(0xAA))
        testbed.sim.spawn(contender(0xBB))
        testbed.sim.run()
        assert {token for token, _ in acquisitions} == {0xAA, 0xBB}
        # The loser retried (contended) but did not exhaust its budget.
        assert max(attempts for _, attempts in acquisitions) > 1

    def test_contender_backoffs_are_decorrelated(self):
        """Two tokens seed different jitter streams: their backoff
        schedules diverge, which is what breaks lockstep retries."""
        import random

        from repro.core.retry import RetryPolicy

        policy = RetryPolicy(
            max_attempts=8, backoff_base_us=2.0, backoff_max_us=32.0,
            jitter_frac=0.5,
        )
        rng_a = random.Random(0xAA * 0x9E3779B1)
        rng_b = random.Random(0xBB * 0x9E3779B1)
        a = [policy.backoff_us(i, rng_a) for i in range(1, 6)]
        b = [policy.backoff_us(i, rng_b) for i in range(1, 6)]
        assert a != b
        # And the schedule is reproducible for a given token.
        rng_a2 = random.Random(0xAA * 0x9E3779B1)
        again = [policy.backoff_us(i, rng_a2) for i in range(1, 6)]
        assert a == again

    def test_unlock_by_wrong_owner(self, testbed):
        def flow():
            yield from testbed.codeflow.sync.lock(0xAA)
            yield from testbed.codeflow.sync.unlock(0xBB)

        process = testbed.sim.spawn(flow())
        testbed.sim.run()
        with pytest.raises(RdmaError, match="held by"):
            _ = process.value

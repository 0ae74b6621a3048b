"""End-to-end integration tests across the whole stack."""

import pytest

from repro.core.api import (
    rdx_cc_event,
    rdx_create_codeflow,
    rdx_deploy_prog,
    rdx_deploy_xstate,
    rdx_jit_compile_code,
    rdx_link_code,
    rdx_mutual_excl,
    rdx_tx,
    rdx_validate_code,
)
from repro.core.xstate import XStateSpec
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed
from repro.mem.layout import unpack_qword
from repro.wasm.filters import make_routing_filter
from repro.wasm.runtime import RequestContext


class TestTable1Api:
    """Exercise every operation of the paper's Table 1 by name."""

    def test_full_table1_flow(self):
        bed = make_testbed(n_hosts=2)
        program = make_stress_program(300, seed=8, with_map=True, name="t1")
        template = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        template.update((0).to_bytes(4, "little"), (64).to_bytes(8, "little"))

        def flow():
            # rdx_create_codeflow
            handle = yield from rdx_create_codeflow(bed.control, bed.sandboxes[0])
            # rdx_validate_code
            stats = yield from rdx_validate_code(handle, program, maps=[template])
            assert stats.states_visited > 0
            # rdx_JIT_compile_code
            binary = yield from rdx_jit_compile_code(handle, program)
            assert not binary.is_linked
            # rdx_deploy_xstate
            xstate = yield from rdx_deploy_xstate(
                handle,
                XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4),
                initial=template,
            )
            # rdx_link_code
            linked = yield from rdx_link_code(handle, program)
            assert linked.is_linked
            # rdx_deploy_prog
            report = yield from rdx_deploy_prog(handle, program, "ingress")
            # rdx_tx on the epoch counter (create_codeflow already
            # stamped incarnation epoch 1 into it)
            prior = yield from rdx_tx(
                handle, b"", 0, handle.sandbox.epoch_addr, 2, expect=1
            )
            assert prior == 1
            # rdx_cc_event on the epoch line
            yield from rdx_cc_event(handle, handle.sandbox.epoch_addr, 8)
            # rdx_mutual_excl
            lock = rdx_mutual_excl(handle, 0xCAFE)
            yield from lock.acquire()
            yield from lock.release()
            return handle, xstate, report

        handle, xstate, report = bed.sim.run_process(flow())
        assert report.total_us > 0
        assert handle.sandbox.epoch() == 2

        # Data path runs the deployed extension against deployed state.
        ctx = bytes(range(256))
        result, _ = bed.sandboxes[0].run_hook("ingress", ctx)
        expected = Interpreter(maps=[template]).run(program.insns, ctx).r0
        assert result.r0 == expected


class TestAgentVsRdxEquivalence:
    def test_identical_data_path_artifacts(self, testbed2):
        """The same program deployed via agent and via RDX computes the
        same results on both hosts -- routes differ, artifacts do not."""
        bed = testbed2
        program = make_stress_program(500, seed=10)
        bed.sim.run_process(bed.agents[0].inject(program, "ingress"))
        bed.sim.run_process(
            bed.control.inject(bed.codeflows[1], program, "ingress")
        )
        ctx = bytes(range(256))
        via_agent, _ = bed.sandboxes[0].run_hook("ingress", ctx)
        via_rdx, _ = bed.sandboxes[1].run_hook("ingress", ctx)
        assert via_agent.r0 == via_rdx.r0

    def test_rdx_faster_agent_burns_cpu(self, testbed2):
        bed = testbed2
        program = make_stress_program(1_300, seed=11)
        agent_breakdown = bed.sim.run_process(
            bed.agents[0].inject(program, "ingress")
        )
        # Warm cache then measure deploy.
        bed.sim.run_process(
            bed.control.inject(bed.codeflows[1], program, "ingress")
        )
        report = bed.sim.run_process(
            bed.control.inject(bed.codeflows[1], program, "ingress")
        )
        assert report.total_us * 10 < agent_breakdown.total_us
        assert bed.cluster.hosts[0].cpu.busy_us > 1_000  # agent host
        assert bed.cluster.hosts[1].cpu.busy_us == 0  # RDX target


class TestWasmOverRdx:
    def test_wasm_filter_deploy_and_execute(self, testbed):
        module = make_routing_filter(n_routes=4, version=3)
        report = testbed.sim.run_process(
            testbed.control.inject(testbed.codeflow, module, "ingress")
        )
        assert report.total_us > 0
        ctx = RequestContext(path_hash=5)
        result, cost = testbed.sandbox.run_wasm_hook("ingress", ctx)
        assert result.value == 0  # CONTINUE
        assert ctx.route == (5 + 3) % 4
        assert cost > 0


class TestIncoherenceWindow:
    def test_vanilla_write_leaves_stale_hook(self, testbed):
        """Without cc_event, the data path keeps the old hook pointer
        until eviction -- directly observable through the cache."""
        sandbox = testbed.sandbox
        hook_addr = sandbox.hook_table.slot_addr("ingress")
        sandbox.hook_table.read_pointer("ingress")  # cache the line

        def flow():
            yield from testbed.codeflow.sync.write(
                hook_addr, (0x1234).to_bytes(8, "little")
            )

        testbed.sim.run_process(flow())
        assert sandbox.hook_table.read_pointer("ingress") == 0  # stale
        dram = unpack_qword(testbed.host.memory.read(hook_addr, 8))
        assert dram == 0x1234

    def test_cc_event_makes_hook_visible(self, testbed):
        sandbox = testbed.sandbox
        hook_addr = sandbox.hook_table.slot_addr("ingress")
        sandbox.hook_table.read_pointer("ingress")

        def flow():
            yield from testbed.codeflow.sync.write(
                hook_addr, (0x5678).to_bytes(8, "little")
            )
            yield from rdx_cc_event(testbed.codeflow, hook_addr, 8)

        testbed.sim.run_process(flow())
        assert sandbox.hook_table.read_pointer("ingress") == 0x5678


class TestCrashContainment:
    def test_crashed_sandbox_flags_reason(self, testbed):
        from repro.errors import SandboxCrash

        pointer = testbed.codeflow.code_allocator.alloc(64, 64)
        testbed.host.cache.cpu_write(pointer, b"\x00" * 64)
        testbed.sandbox.hook_table.write_pointer("ingress", pointer)
        with pytest.raises(SandboxCrash):
            testbed.sandbox.run_hook("ingress", b"")
        assert testbed.sandbox.crashed
        assert testbed.sandbox.crash_reason

    def test_rollback_recovers_crashed_hook(self, testbed):
        """Deploy good, deploy corrupt (simulated), roll back, verify."""
        from repro.errors import SandboxCrash

        good = make_stress_program(100, seed=1, name="ext")
        bad = make_stress_program(100, seed=2, name="ext")
        testbed.sim.run_process(
            testbed.control.inject(testbed.codeflow, good, "ingress")
        )
        testbed.sim.run_process(
            testbed.control.inject(testbed.codeflow, bad, "ingress")
        )
        # Corrupt the live (bad) image in memory: data path crashes.
        record = testbed.codeflow.deployed["ext"]
        testbed.host.memory.write(record.code_addr + 9, b"\xff\xff")
        testbed.host.cache.flush(record.code_addr, record.code_len)
        with pytest.raises(SandboxCrash):
            testbed.sandbox.run_hook("ingress", bytes(256))

        testbed.sim.run_process(testbed.codeflow.rollback("ext"))
        testbed.sandbox.crashed = False
        result, _ = testbed.sandbox.run_hook("ingress", bytes(256))
        from repro.ebpf.interpreter import Interpreter

        assert result.r0 == Interpreter().run(good.insns, bytes(256)).r0

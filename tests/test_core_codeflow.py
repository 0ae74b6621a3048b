"""CodeFlow lifecycle tests: deploy, detach, flip, XState (§3.1-§3.4)."""

import pytest

from repro.errors import DeployError, SecurityError, VerifierError, XStateError
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.stress import make_stress_program
from repro.core.xstate import XStateSpec
from repro.exp.harness import make_testbed


def inject(testbed, program, hook="ingress", **kwargs):
    return testbed.sim.run_process(
        testbed.control.inject(testbed.codeflow, program, hook, **kwargs)
    )


class TestDeploy:
    def test_deploy_and_execute(self, testbed):
        program = make_stress_program(200, seed=4)
        report = inject(testbed, program)
        assert report.total_us > 0
        ctx = bytes(range(256))
        result, _ = testbed.sandbox.run_hook("ingress", ctx)
        assert result.r0 == Interpreter().run(program.insns, ctx).r0

    def test_no_target_cpu_used(self, testbed):
        before = testbed.host.cpu.busy_us
        inject(testbed, make_stress_program(1300, seed=4))
        testbed.sim.run()
        assert testbed.host.cpu.busy_us == before

    def test_compile_cache_hit_on_redeploy(self, testbed):
        program = make_stress_program(200, seed=4)
        inject(testbed, program)
        validations = testbed.control.validations_run
        inject(testbed, program)
        assert testbed.control.validations_run == validations
        assert testbed.control.cache_hits >= 1

    def test_replace_updates_hook(self, testbed):
        v1 = make_stress_program(100, seed=1, name="ext")
        v2 = make_stress_program(100, seed=2, name="ext")
        inject(testbed, v1)
        inject(testbed, v2)
        ctx = bytes(range(256))
        result, _ = testbed.sandbox.run_hook("ingress", ctx)
        assert result.r0 == Interpreter().run(v2.insns, ctx).r0

    def test_history_retained_for_rollback(self, testbed):
        v1 = make_stress_program(100, seed=1, name="ext")
        v2 = make_stress_program(100, seed=2, name="ext")
        inject(testbed, v1)
        record_v1_addr = testbed.codeflow.deployed["ext"].code_addr
        inject(testbed, v2)
        record = testbed.codeflow.deployed["ext"]
        assert record.history == [record_v1_addr]
        assert record.version == 2

    def test_retain_history_false_bounds_pages(self, testbed):
        program = make_stress_program(100, seed=1, name="ext")
        inject(testbed, program)
        extent = testbed.codeflow.code_allocator.bytes_live
        for _ in range(5):
            inject(testbed, program, retain_history=False)
        # The superseded extent stays resident as the delta baseline
        # and one generation-old extent awaits its deferred free (it
        # may still be under in-flight execs until this deploy's commit
        # became visible) -- but the footprint is bounded: live +
        # baseline + one pending free, never growing with deploy count.
        steady = testbed.codeflow.code_allocator.bytes_live
        assert steady <= 3 * extent
        inject(testbed, program, retain_history=False)
        assert testbed.codeflow.code_allocator.bytes_live == steady

    def test_unknown_hook_rejected(self, testbed):
        with pytest.raises(DeployError, match="no hook"):
            inject(testbed, make_stress_program(100, seed=1), hook="ghost")

    def test_unlinked_deploy_rejected(self, testbed):
        program = make_stress_program(100, seed=1, with_map=True)
        template = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")

        def flow():
            entry = yield from testbed.control.prepare(program, maps=[template])
            yield from testbed.codeflow.deploy_prog(program, entry.binary, "ingress")

        process = testbed.sim.spawn(flow())
        testbed.sim.run()
        with pytest.raises(DeployError, match="unresolved"):
            _ = process.value

    def test_detach(self, testbed):
        program = make_stress_program(100, seed=1)
        inject(testbed, program)
        testbed.sim.run_process(testbed.codeflow.detach(program.name))
        result, _ = testbed.sandbox.run_hook("ingress", bytes(256))
        assert result is None
        assert program.name not in testbed.codeflow.deployed

    def test_detach_unknown(self, testbed):
        def flow():
            yield from testbed.codeflow.detach("ghost")

        process = testbed.sim.spawn(flow())
        testbed.sim.run()
        with pytest.raises(DeployError):
            _ = process.value

    def test_deploy_report_phases(self, testbed):
        report = inject(testbed, make_stress_program(1300, seed=9))
        phases = report.phases()
        assert set(phases) == {"dispatch", "link", "write", "commit", "cc"}
        assert all(v >= 0 for v in phases.values())
        # RDX's injection path has no verify/JIT phase at all (Fig 4b).
        assert "verify" not in phases


class TestXState:
    SPEC = XStateSpec("kv", MapType.HASH, key_size=4, value_size=8, max_entries=8)

    def deploy_xstate(self, testbed, spec=None, initial=None):
        return testbed.sim.run_process(
            testbed.codeflow.deploy_xstate(spec or self.SPEC, initial=initial)
        )

    def test_deploy_writes_meta_entry(self, testbed):
        handle = self.deploy_xstate(testbed)
        meta_addr = testbed.codeflow.scratchpad.meta_entry_addr(handle.meta_index)
        from repro.mem.layout import unpack_qword

        stored = unpack_qword(testbed.host.memory.read(meta_addr, 8))
        assert stored == handle.header_addr

    def test_header_self_describes(self, testbed):
        from repro.core.xstate import decode_xstate_header

        handle = self.deploy_xstate(testbed)
        header = testbed.host.memory.read(handle.header_addr, 16)
        decoded = decode_xstate_header(header)
        assert decoded.map_type is MapType.HASH
        assert decoded.key_size == 4
        assert decoded.value_size == 8
        assert decoded.max_entries == 8

    def test_initial_contents_deployed(self, testbed):
        initial = BpfMap(MapType.HASH, 4, 8, 8, name="kv")
        initial.update((1).to_bytes(4, "little"), (77).to_bytes(8, "little"))
        handle = self.deploy_xstate(testbed, initial=initial)

        def flow():
            value = yield from testbed.codeflow.xstate_lookup(
                handle, (1).to_bytes(4, "little")
            )
            return value

        value = testbed.sim.run_process(flow())
        assert int.from_bytes(value, "little") == 77

    def test_remote_update_and_lookup(self, testbed):
        handle = self.deploy_xstate(testbed)

        def flow():
            yield from testbed.codeflow.xstate_update(
                handle, (5).to_bytes(4, "little"), (99).to_bytes(8, "little")
            )
            value = yield from testbed.codeflow.xstate_lookup(
                handle, (5).to_bytes(4, "little")
            )
            return value

        value = testbed.sim.run_process(flow())
        assert int.from_bytes(value, "little") == 99

    def test_duplicate_name_rejected(self, testbed):
        self.deploy_xstate(testbed)
        with pytest.raises(XStateError, match="already deployed"):
            self.deploy_xstate(testbed)

    def test_destroy_frees_slot(self, testbed):
        handle = self.deploy_xstate(testbed)
        testbed.sim.run_process(testbed.codeflow.destroy_xstate(handle))
        assert testbed.codeflow.scratchpad.live_count == 0
        # Redeploy under the same name is now fine.
        self.deploy_xstate(testbed)

    def test_data_path_adopts_remote_xstate(self, testbed):
        """The §3.4 payoff: extension code uses a map the control
        plane deployed, without any agent wiring it up."""
        spec = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
        initial = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        initial.update((0).to_bytes(4, "little"), (123456).to_bytes(8, "little"))
        self.deploy_xstate(testbed, spec=spec, initial=initial)
        program = make_stress_program(100, seed=1, with_map=True)
        inject(testbed, program)
        result, _ = testbed.sandbox.run_hook("ingress", bytes(256))
        template = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        template.update((0).to_bytes(4, "little"), (123456).to_bytes(8, "little"))
        expected = Interpreter(maps=[template]).run(program.insns, bytes(256)).r0
        assert result.r0 == expected

    def test_bad_geometry_update(self, testbed):
        handle = self.deploy_xstate(testbed)

        def flow():
            yield from testbed.codeflow.xstate_update(handle, b"xx", b"yy")

        process = testbed.sim.spawn(flow())
        testbed.sim.run()
        with pytest.raises(XStateError, match="geometry"):
            _ = process.value

    def test_meta_xstate_avoids_strawman_waste(self, testbed):
        """§3.4: indirection allocates only what each XState needs."""
        small = XStateSpec("small", MapType.HASH, 4, 8, 4)
        self.deploy_xstate(testbed, spec=small)
        used = testbed.codeflow.scratchpad.bytes_live
        assert used == small.total_bytes()


class TestControlPlane:
    def test_create_codeflow_requires_registration(self, testbed):
        from repro.sandbox.sandbox import Sandbox

        rogue = Sandbox(testbed.host, name="rogue", hooks=("h",),
                        code_bytes=1 << 20, scratchpad_bytes=1 << 20)

        def flow():
            yield from testbed.control.create_codeflow(rogue)

        process = testbed.sim.spawn(flow())
        testbed.sim.run()
        with pytest.raises(DeployError, match="ctx_register|stubs"):
            _ = process.value

    def test_program_limit_enforced(self, testbed):
        from repro.core.security import SecurityPolicy

        testbed.control.policy = SecurityPolicy(max_insns=50)
        with pytest.raises(SecurityError, match="instruction limit"):
            inject(testbed, make_stress_program(100, seed=1))

    def test_registry_hit_never_crosses_map_geometry(self, testbed2):
        """A verdict holds for the map geometry it was reached under.

        ``stress_map`` has 8-byte values on node0 and 2-byte values on
        node1; the program reads 4 bytes of the value, so it is safe on
        node0 only.  Deploying to node0 first used to leave a registry
        entry under ``(tag, arch)`` that node1 then hit.
        """
        bed = testbed2
        for codeflow, value_size in zip(bed.codeflows, (8, 2)):
            spec = XStateSpec("stress_map", MapType.ARRAY, 4, value_size, 4)
            bed.sim.run_process(codeflow.deploy_xstate(spec))
        program = make_stress_program(300, seed=1, with_map=True)
        bed.sim.run_process(
            bed.control.inject(bed.codeflows[0], program, "ingress")
        )
        process = bed.sim.spawn(
            bed.control.inject(bed.codeflows[1], program, "ingress")
        )
        bed.sim.run()
        with pytest.raises(VerifierError, match=r"outside value_size=2"):
            _ = process.value
        assert bed.control.compiles_run == 1
        # Same geometry again: still one verdict, served from the registry.
        hits = bed.control.cache_hits
        bed.sim.run_process(
            bed.control.inject(bed.codeflows[0], program, "ingress")
        )
        assert bed.control.cache_hits == hits + 1

    def test_arch_specific_compilation(self, testbed2):
        """One program, two architectures: both cached separately."""
        program = make_stress_program(100, seed=1)
        bed = testbed2
        bed.sandboxes[1].arch = "arm64"  # pretend node1 is ARM
        bed.codeflows[1].manifest.arch = "arm64"
        bed.sim.run_process(
            bed.control.inject(bed.codeflows[0], program, "ingress")
        )
        bed.sim.run_process(
            bed.control.inject(bed.codeflows[1], program, "ingress")
        )
        assert bed.control.compiles_run == 2
        x86 = bed.control.compiled_binary(program, "x86_64")
        arm = bed.control.compiled_binary(program, "arm64")
        assert (x86.arch, arm.arch) == ("x86_64", "arm64")
        result, _ = bed.sandboxes[1].run_hook("ingress", bytes(256))
        assert result is not None

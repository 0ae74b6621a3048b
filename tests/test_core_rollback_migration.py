"""Rollback, hot-patch, and live-migration tests (§4)."""

import pytest

from repro.core.migration import MigrationManager
from repro.core.xstate import XStateSpec
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.stress import make_stress_program
from repro.errors import DeployError, StaleEpochError
from repro.mem.layout import pack_qword


def inject(bed, codeflow, program, hook="ingress"):
    return bed.sim.run_process(bed.control.inject(codeflow, program, hook))


def rollback(bed, name):
    return bed.sim.run_process(bed.codeflow.rollback(name))


class TestRollback:
    def test_rollback_restores_previous_logic(self, testbed):
        stable = make_stress_program(100, seed=1, name="ext")
        faulty = make_stress_program(100, seed=2, name="ext")
        inject(testbed, testbed.codeflow, stable)
        inject(testbed, testbed.codeflow, faulty)
        record = rollback(testbed, "ext")
        ctx = bytes(range(256))
        result, _ = testbed.sandbox.run_hook("ingress", ctx)
        assert result.r0 == Interpreter().run(stable.insns, ctx).r0
        assert record.duration_us < 50  # microseconds, not milliseconds

    def test_rollback_without_history(self, testbed):
        program = make_stress_program(100, seed=1, name="solo")
        inject(testbed, testbed.codeflow, program)
        process = testbed.sim.spawn(testbed.codeflow.rollback("solo"))
        testbed.sim.run()
        with pytest.raises(DeployError, match="no previous version"):
            _ = process.value

    def test_rollback_unknown_program(self, testbed):
        process = testbed.sim.spawn(testbed.codeflow.rollback("ghost"))
        testbed.sim.run()
        with pytest.raises(DeployError):
            _ = process.value

    def test_repeated_rollback_walks_history(self, testbed):
        v1 = make_stress_program(100, seed=1, name="ext")
        v2 = make_stress_program(100, seed=2, name="ext")
        v3 = make_stress_program(100, seed=3, name="ext")
        for version in (v1, v2, v3):
            inject(testbed, testbed.codeflow, version)
        rollback(testbed, "ext")  # -> v2
        rollback(testbed, "ext")  # -> v1
        ctx = bytes(range(256))
        result, _ = testbed.sandbox.run_hook("ingress", ctx)
        assert result.r0 == Interpreter().run(v1.insns, ctx).r0

    def test_rollback_returns_its_record_and_is_no_deploy(self, testbed):
        """The record names both images; a rollback mints no deploy
        id, span or transaction and feeds no deploy's series."""
        codeflow = testbed.codeflow
        inject(testbed, codeflow, make_stress_program(100, seed=1, name="ext"))
        inject(testbed, codeflow, make_stress_program(100, seed=2, name="ext"))
        live = codeflow.deployed["ext"]
        faulty, stable = live.code_addr, live.history[-1]
        ids = testbed.sim.ids

        def books():
            series = [
                row for row in testbed.obs.registry.snapshot()
                if row["name"].startswith("rdx.deploy.")
            ]
            minted = [repr(getattr(ids, name)) for name in ids.__slots__]
            return series, minted, len(codeflow.reports)

        before = books()
        record = rollback(testbed, "ext")
        assert (record.program_name, record.target) == ("ext", testbed.sandbox.name)
        assert (record.from_addr, record.to_addr) == (faulty, stable)
        after = books()
        assert after[0] == before[0] and after[2] == before[2]
        # Only WR (and, hb on, doorbell-chain) ids are drawn.
        assert {
            name for name, old, new in zip(ids.__slots__, before[1], after[1])
            if old != new
        } <= {"wr", "chain"}

    def test_hot_patch_deploys_fix(self, testbed):
        """A hot patch is an ordinary deploy onto the live hook; the
        image it replaces stays resident as the rollback target."""
        buggy = make_stress_program(100, seed=4, name="svc_ext")
        fixed = make_stress_program(100, seed=5, name="svc_ext")
        inject(testbed, testbed.codeflow, buggy)
        buggy_addr = testbed.codeflow.deployed["svc_ext"].code_addr
        inject(testbed, testbed.codeflow, fixed)
        ctx = bytes(range(256))
        result, _ = testbed.sandbox.run_hook("ingress", ctx)
        assert result.r0 == Interpreter().run(fixed.insns, ctx).r0
        assert testbed.codeflow.deployed["svc_ext"].history == [buggy_addr]


class TestMigration:
    def test_migrate_code(self, testbed2):
        bed = testbed2
        program = make_stress_program(100, seed=1, name="mig")
        inject(bed, bed.codeflows[0], program)
        manager = MigrationManager(bed.control)
        report = bed.sim.run_process(
            manager.migrate(bed.codeflows[0], bed.codeflows[1], "mig")
        )
        ctx = bytes(range(256))
        src_result, _ = bed.sandboxes[0].run_hook("ingress", ctx)
        dst_result, _ = bed.sandboxes[1].run_hook("ingress", ctx)
        assert src_result.r0 == dst_result.r0
        assert report.total_us < 1_000  # microsecond-scale

    def test_migrate_with_xstate(self, testbed2):
        bed = testbed2
        spec = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
        initial = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        initial.update((0).to_bytes(4, "little"), (42).to_bytes(8, "little"))
        src_handle = bed.sim.run_process(
            bed.codeflows[0].deploy_xstate(spec, initial=initial)
        )
        program = make_stress_program(100, seed=1, with_map=True, name="mig")
        inject(bed, bed.codeflows[0], program)

        # Mutate live state on the source before migrating.
        def mutate():
            yield from bed.codeflows[0].xstate_update(
                src_handle, (0).to_bytes(4, "little"), (777).to_bytes(8, "little")
            )

        bed.sim.run_process(mutate())

        manager = MigrationManager(bed.control)
        report = bed.sim.run_process(
            manager.migrate(
                bed.codeflows[0], bed.codeflows[1], "mig", xstate=src_handle
            )
        )
        assert report.xstate_bytes > 0
        # Destination runs with the *migrated* state value.
        ctx = bytes(256)
        dst_result, _ = bed.sandboxes[1].run_hook("ingress", ctx)
        template = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        template.update((0).to_bytes(4, "little"), (777).to_bytes(8, "little"))
        expected = Interpreter(maps=[template]).run(program.insns, ctx).r0
        assert dst_result.r0 == expected

    def test_copy_into_a_deployed_xstate_is_fenced(self, testbed2):
        """The live-state copy into an XState already on the destination
        fences first: a destination a successor owns keeps its map."""
        bed = testbed2
        spec = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
        initial = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        initial.update((0).to_bytes(4, "little"), (42).to_bytes(8, "little"))
        src_handle = bed.sim.run_process(
            bed.codeflows[0].deploy_xstate(spec, initial=initial)
        )
        dst_handle = bed.sim.run_process(bed.codeflows[1].deploy_xstate(spec))
        inject(bed, bed.codeflows[0], make_stress_program(100, seed=1, name="mig"))
        dst = bed.sandboxes[1]
        before = dst.host.memory.read(dst_handle.data_addr, spec.data_bytes())
        dst.host.memory.write(
            dst.epoch_addr, pack_qword(bed.codeflows[1].epoch + 1)
        )
        with pytest.raises(StaleEpochError):
            bed.sim.run_process(
                MigrationManager(bed.control).migrate(
                    bed.codeflows[0], bed.codeflows[1], "mig", xstate=src_handle
                )
            )
        assert dst.host.memory.read(dst_handle.data_addr, spec.data_bytes()) == (
            before
        )

    def test_migrate_unknown_program(self, testbed2):
        bed = testbed2
        manager = MigrationManager(bed.control)
        process = bed.sim.spawn(
            manager.migrate(bed.codeflows[0], bed.codeflows[1], "ghost")
        )
        bed.sim.run()
        with pytest.raises(DeployError):
            _ = process.value

    def test_migration_reuses_compile_cache(self, testbed2):
        bed = testbed2
        program = make_stress_program(100, seed=1, name="mig")
        inject(bed, bed.codeflows[0], program)
        compiles_before = bed.control.compiles_run
        manager = MigrationManager(bed.control)
        bed.sim.run_process(
            manager.migrate(bed.codeflows[0], bed.codeflows[1], "mig")
        )
        assert bed.control.compiles_run == compiles_before  # cache hit

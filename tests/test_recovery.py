"""Crash-recovery layer tests: journal, epochs, leases, reconciler.

Covers the control-plane survivability stack end to end:

* the intent journal's WAL semantics (begin/commit/abort, committed
  intent, in-flight detection, jsonl round-trip);
* epoch fencing -- a stale incarnation's deploys and broadcasts bounce
  off the CAS-stamped epoch word with ``StaleEpochError``;
* lease-based health detection and broadcast degradation;
* warm reboot + anti-entropy reconciliation: NODE_CRASH, then
  ``recover_target(reboot=True)``, then a reconcile pass, ending with
  a clean audit and an extension that answers data-path traffic;
* the bounded compile cache and ``close_codeflow``.
"""

import pytest

from repro import params
from repro.core.broadcast import CodeFlowGroup
from repro.core.faults import FaultInjector, FaultKind
from repro.core.health import HealthDetector, TargetHealth
from repro.core.introspect import RemoteIntrospector
from repro.core.journal import IntentJournal
from repro.core.reconcile import Reconciler, resume_control_plane
from repro.core.xstate import XStateSpec
from repro.ebpf.maps import MapType
from repro.ebpf.stress import make_stress_program
from repro.errors import (
    BroadcastAborted,
    DeployError,
    SandboxCrash,
    StaleEpochError,
    TransientFault,
)
from repro.exp.harness import make_testbed
from repro.rdma.rnic import RNIC_MTU_BYTES


def programs_for(bed, version=1, size=120):
    return [
        make_stress_program(size, seed=version * 10 + i, name=f"app{i}")
        for i in range(len(bed.codeflows))
    ]


class TestIntentJournal:
    def test_commit_folds_into_intent(self):
        journal = IntentJournal()
        epoch = journal.claim_epoch()
        journal.begin(
            "t1", "deploy", epoch,
            target="node0", hook="ingress", name="app", tag="aa",
        )
        journal.commit(
            "t1", target="node0", hook="ingress", name="app", tag="aa"
        )
        intent = journal.committed_intent()["node0"]
        assert intent.programs == {"app": "aa"}
        assert intent.hooks == {"ingress": "aa"}
        assert not journal.in_flight()

    def test_abort_leaves_no_intent(self):
        journal = IntentJournal()
        epoch = journal.claim_epoch()
        journal.begin(
            "t1", "deploy", epoch,
            target="node0", hook="ingress", name="app", tag="aa",
        )
        journal.abort("t1", reason="boom")
        assert journal.committed_intent() == {}

    def test_dangling_intend_is_in_flight(self):
        journal = IntentJournal()
        epoch = journal.claim_epoch()
        journal.begin(
            "t1", "broadcast", epoch,
            hook="ingress",
            legs=[{"target": "node0", "hook": "ingress",
                   "name": "app", "tag": "aa"}],
        )
        journal.phase("t1", "bubbled")
        open_txns = journal.in_flight()
        assert [t.txn for t in open_txns] == ["t1"]
        assert "bubbled" in [
            record.detail.get("phase") for record in open_txns[0].phases
        ]

    def test_jsonl_round_trip_preserves_replay(self):
        journal = IntentJournal()
        epoch = journal.claim_epoch()
        journal.begin(
            "t1", "deploy", epoch,
            target="node0", hook="ingress", name="app", tag="aa",
        )
        journal.commit(
            "t1", target="node0", hook="ingress", name="app", tag="aa"
        )
        journal.begin(
            "t2", "deploy", epoch,
            target="node1", hook="egress", name="app2", tag="bb",
        )
        replayed = IntentJournal.from_jsonl(journal.to_jsonl())
        assert replayed.latest_epoch() == epoch
        assert replayed.committed_intent()["node0"].programs == {"app": "aa"}
        assert [t.txn for t in replayed.in_flight()] == ["t2"]
        # The reopened WAL can still abort the dangling transaction.
        replayed.abort("t2", reason="superseded")
        assert not replayed.in_flight()

    def test_epochs_are_monotonic(self):
        journal = IntentJournal()
        first = journal.claim_epoch()
        second = journal.claim_epoch()
        assert second == first + 1
        assert journal.latest_epoch() == second


class TestIntentBracket:
    """``RdxControlPlane.intent`` is the one bracket every journaled
    operation runs in: a body that raises closes its transaction with
    ABORT and the error's text, unless the plane has crashed."""

    def test_a_raising_body_aborts(self, testbed):
        journal = testbed.control.journal
        with pytest.raises(DeployError):
            with testbed.control.intent("detach", target="node0") as txn:
                txn.phase("prepared")
                raise DeployError("boom")
        assert [(r.rec, r.detail.get("phase")) for r in journal.records[-3:]] == [
            ("INTEND", None), ("PHASE", "prepared"), ("ABORT", None)
        ]
        assert journal.records[-1].detail == {"reason": "boom"}
        assert journal.in_flight() == []

    def test_a_crashed_plane_leaves_its_intend_open(self, testbed):
        plane = testbed.control
        with pytest.raises(DeployError):
            with plane.intent("detach", target="node0"):
                plane.crash()
                raise DeployError("fail-stop")
        assert [txn.op for txn in plane.journal.in_flight()] == ["detach"]

    @pytest.mark.parametrize(
        "op", ["deploy", "broadcast", "detach", "xstate", "xstate_destroy"]
    )
    def test_every_operation_aborts_when_its_writes_fail(
        self, testbed, monkeypatch, op
    ):
        bed = testbed
        codeflow = bed.codeflow
        program = programs_for(bed)[0]
        spec = XStateSpec("kv", MapType.HASH, 4, 8, 8)
        if op == "detach":
            bed.sim.run_process(bed.control.inject(codeflow, program, "ingress"))
        elif op == "xstate_destroy":
            handle = bed.sim.run_process(codeflow.deploy_xstate(spec))

        def install(*args, **kwargs):
            raise TransientFault("install refused")

        monkeypatch.setattr(codeflow.sync, "install", install)
        body = {
            "deploy": lambda: bed.control.inject(codeflow, program, "ingress"),
            "broadcast": lambda: CodeFlowGroup([codeflow]).broadcast(
                [program], "ingress"
            ),
            "detach": lambda: codeflow.detach(program.name),
            "xstate": lambda: codeflow.deploy_xstate(spec),
            "xstate_destroy": lambda: codeflow.destroy_xstate(handle),
        }[op]
        process = bed.sim.spawn(body())
        bed.sim.run()
        assert not process.ok
        journal = bed.control.journal
        last = journal.records[-1]
        assert (last.rec, last.op) == ("ABORT", op)
        assert last.detail["reason"]
        assert journal.in_flight() == []


class TestEpochFencing:
    def test_create_codeflow_stamps_epoch(self, testbed):
        assert testbed.sandbox.epoch() == testbed.control.epoch

    def test_stale_deploy_is_fenced(self, testbed):
        bed = testbed
        program = programs_for(bed)[0]
        # A successor incarnation takes over the same journal.
        plane, _ = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        assert plane.epoch > bed.control.epoch
        with pytest.raises(StaleEpochError):
            bed.sim.run_process(bed.control.inject(
                bed.codeflow, program, "ingress"
            ))

    def test_stale_broadcast_aborts_without_landing(self, testbed2):
        bed = testbed2
        group = CodeFlowGroup(bed.codeflows)
        bed.sim.run_process(group.broadcast(programs_for(bed, 1), "ingress"))
        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(
            Reconciler(plane).reconcile_all(codeflows)
        )
        assert all(r.converged for r in reports)
        hooks = [
            sb.hook_table.read_pointer("ingress") for sb in bed.sandboxes
        ]
        with pytest.raises(BroadcastAborted) as excinfo:
            bed.sim.run_process(
                group.broadcast(programs_for(bed, 2), "ingress")
            )
        outcomes = excinfo.value.result.outcomes
        assert all(o.error_kind == "StaleEpochError" for o in outcomes)
        assert [
            sb.hook_table.read_pointer("ingress") for sb in bed.sandboxes
        ] == hooks
        # And the stale writer didn't lower the successor's bubbles
        # either -- its cleanup must be fenced too.
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    @pytest.mark.arm(hb_check=True)
    def test_stale_rollback_is_fenced(self, testbed):
        """A rollback fences like every hook commit: the stale plane's
        rollback reads the successor's epoch and stands down before its
        CAS, so the successor's hook keeps its image -- an unfenced flip
        is an hb ``stale-epoch-write``."""
        from repro.hb import checker

        bed = testbed
        for version in (1, 2):
            bed.sim.run_process(bed.control.inject(
                bed.codeflow, programs_for(bed, version)[0], "ingress"
            ))
        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
        assert reports[0].converged
        hook = bed.sandbox.hook_table.read_pointer("ingress")
        with pytest.raises(StaleEpochError):
            bed.sim.run_process(bed.codeflow.rollback("app0"))
        assert bed.sandbox.hook_table.read_pointer("ingress") == hook
        assert checker.consume(bed.sim).findings == []

    def test_crashed_plane_refuses_new_work(self, testbed):
        bed = testbed
        bed.control.crash()
        with pytest.raises(DeployError):
            bed.sim.run_process(bed.control.inject(
                bed.codeflow, programs_for(bed)[0], "ingress"
            ))


class TestHealthLeases:
    def test_lease_walks_alive_suspect_dead(self, testbed):
        bed = testbed
        detector = HealthDetector(bed.codeflows)
        target = bed.sandbox.name
        assert bed.sim.run_process(detector.probe(target)) is TargetHealth.ALIVE
        bed.host.crash()
        assert bed.sim.run_process(detector.probe(target)) is TargetHealth.SUSPECT
        for _ in range(detector.dead_after):
            bed.sim.run_process(detector.probe(target))
        assert detector.state_of(target) is TargetHealth.DEAD
        bed.host.recover()
        assert bed.sim.run_process(detector.probe(target)) is TargetHealth.ALIVE

    def test_broadcast_degrades_around_dead_lease(self, testbed2):
        bed = testbed2
        group = CodeFlowGroup(bed.codeflows)
        detector = HealthDetector(bed.codeflows)
        healthy = bed.sim.run_process(
            group.broadcast(programs_for(bed, 1), "ingress")
        )
        bed.sandboxes[1].host.crash()
        for _ in range(detector.dead_after):
            bed.sim.run_process(detector.probe_all())
        result = bed.sim.run_process(
            group.broadcast(
                programs_for(bed, 2), "ingress",
                allow_partial=True, health=detector,
            )
        )
        assert result.degraded
        assert result.outcomes[0].ok
        assert result.outcomes[1].error_kind == "HostUnreachable"
        # The skipped leg posted no WR, so no lower burns the dead
        # host's retry budget inside the window: it is the healthy
        # rack's (one sequential lower shorter on the serial arm), not
        # 74 us.
        assert result.bubble_window_us <= healthy.bubble_window_us + 1e-9
        assert not any(
            metric.name == "rdx.broadcast.bubble_lower_failed"
            for metric in bed.obs.registry
        )


class TestWarmRebootReconcile:
    def test_node_crash_reboot_reconcile_serves_traffic(self, testbed2):
        """The tentpole invariant: NODE_CRASH -> recover(reboot=True)
        -> reconcile -> clean audit and the extension answers traffic."""
        bed = testbed2
        group = CodeFlowGroup(bed.codeflows)
        bed.sim.run_process(group.broadcast(programs_for(bed, 1), "ingress"))

        injector = FaultInjector(bed.codeflows[1], seed=0)
        injector.crash_target()
        injector.recover_target(reboot=True)
        rebooted = bed.sandboxes[1]
        assert rebooted.reboots == 1
        assert rebooted.hook_table.read_pointer("ingress") == 0

        reports = bed.sim.run_process(
            Reconciler(bed.control).reconcile_all(bed.codeflows)
        )
        assert all(r.converged for r in reports)
        assert all(r.audit.clean for r in reports)
        for sandbox in bed.sandboxes:
            execution, _ = sandbox.run_hook("ingress", bytes(256))
            assert execution is not None

    def test_resumed_plane_adopts_survivors(self, testbed):
        bed = testbed
        program = programs_for(bed)[0]
        bed.sim.run_process(bed.control.inject(
            bed.codeflow, program, "ingress"
        ))
        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(
            Reconciler(plane).reconcile_all(codeflows)
        )
        assert reports[0].converged
        kinds = [a.kind for a in reports[0].actions]
        assert "adopt" in kinds and "redeploy" not in kinds
        introspector = RemoteIntrospector(codeflows[0])
        introspector.snapshot_deployed()
        assert bed.sim.run_process(introspector.audit()).clean


    def test_a_restart_undoes_a_rollback_known_hole(self, testbed):
        """Known hole: a rollback journals no intent, and
        ``DeployedProgram.history`` holds bare addresses, so nothing
        names the program a rollback restored.  A successor plane
        converges to the last committed deploy instead: it adopts v2's
        still-resident image, re-hooks it and detaches v1 as an orphan
        -- ``converged``, and the hook runs the faulty v2 again."""
        from repro.ebpf.interpreter import Interpreter

        bed = testbed
        v1, v2 = (programs_for(bed, version)[0] for version in (1, 2))
        ctx = bytes(range(256))
        r0 = [Interpreter().run(p.insns, ctx).r0 for p in (v1, v2)]
        assert r0[0] != r0[1]
        for program in (v1, v2):
            bed.sim.run_process(bed.control.inject(
                bed.codeflow, program, "ingress"
            ))
        bed.sim.run_process(bed.codeflow.rollback(v1.name))
        assert bed.sandbox.run_hook("ingress", ctx)[0].r0 == r0[0]
        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        (report,) = bed.sim.run_process(
            Reconciler(plane).reconcile_all(codeflows)
        )
        assert [a.kind for a in report.actions] == [
            "adopt", "rehook", "detach_orphan",
        ]
        assert report.converged
        assert bed.sandbox.run_hook("ingress", ctx)[0].r0 == r0[1]


class TestRegistryCapAndClose:
    def test_compile_cache_is_bounded(self, testbed):
        bed = testbed
        for i in range(params.RDX_REGISTRY_CAP + 5):
            program = make_stress_program(60, seed=i, name=f"p{i}")
            bed.sim.run_process(
                bed.control.prepare_for(bed.codeflow, program)
            )
        assert len(bed.control.artifacts.registry) == params.RDX_REGISTRY_CAP
        assert bed.control.cache_evictions == 5

    def test_lru_touch_keeps_hot_entry(self, testbed):
        bed = testbed
        hot = make_stress_program(60, seed=1000, name="hot")
        bed.sim.run_process(bed.control.prepare_for(bed.codeflow, hot))
        for i in range(params.RDX_REGISTRY_CAP - 1):
            program = make_stress_program(60, seed=i, name=f"p{i}")
            bed.sim.run_process(
                bed.control.prepare_for(bed.codeflow, program)
            )
        # Touch the oldest entry, then overflow by one: the hot entry
        # must survive and the oldest untouched one must be evicted.
        bed.sim.run_process(bed.control.prepare_for(bed.codeflow, hot))
        overflow = make_stress_program(60, seed=2000, name="overflow")
        bed.sim.run_process(bed.control.prepare_for(bed.codeflow, overflow))
        tags = {key[0] for key in bed.control.artifacts.registry.entries}
        assert hot.tag() in tags

    def test_close_codeflow_releases_qps(self, testbed):
        bed = testbed
        plane = bed.control
        codeflow = bed.codeflow
        qp_counts_before = [ctx.qp_count for ctx, _qp in codeflow._qp_pair]
        assert all(count > 0 for count in qp_counts_before)
        plane.close_codeflow(codeflow)
        assert codeflow.closed
        assert codeflow not in plane.codeflows
        with pytest.raises(DeployError):
            plane.close_codeflow(codeflow)


@pytest.mark.arm(pipelined_deploy=True)
class TestTornBatchRecovery:
    """Torn WR chains: prefix detection, CRC readback, and repair."""

    def test_crash_mid_chain_strands_exact_mtu_prefix(self, testbed):
        """A target dying mid-chain keeps exactly the landed MTU chunks;
        the aborted transaction leaves committed intent at v1, and a
        re-inject after recovery overwrites the torn prefix whole."""
        bed = testbed
        codeflow = bed.codeflow
        v1 = make_stress_program(1_300, seed=7, name="app")
        bed.sim.run_process(bed.control.inject(codeflow, v1, "ingress"))
        bed.sim.run()
        baseline, _ = bed.sandbox.run_hook("ingress", bytes(256))

        # Fail-stop the target the instant the first full MTU chunk of
        # the v2 image lands: the chain dies with that prefix in DRAM.
        cache = bed.host.cache
        original = cache.dma_write
        seen = {}

        def crash_after_first_chunk(addr, data):
            original(addr, data)
            if len(data) == RNIC_MTU_BYTES and "addr" not in seen:
                seen["addr"] = addr
                bed.host.crash()

        cache.dma_write = crash_after_first_chunk
        v2 = make_stress_program(1_300, seed=8, name="app")
        try:
            with pytest.raises(TransientFault):
                bed.sim.run_process(
                    bed.control.inject(codeflow, v2, "ingress")
                )
        finally:
            cache.dma_write = original

        # The image the torn chain carried: v2 linked for this target.
        entry = bed.sim.run_process(bed.control.prepare_for(codeflow, v2))
        linked, _cost_us = codeflow.linker.link(entry.binary)
        assert len(linked.code) > RNIC_MTU_BYTES
        landed = bed.host.memory.read(seen["addr"], len(linked.code))
        assert landed[:RNIC_MTU_BYTES] == linked.code[:RNIC_MTU_BYTES]
        assert landed[RNIC_MTU_BYTES:] == bytes(
            len(linked.code) - RNIC_MTU_BYTES
        )

        # The deploy aborted cleanly: committed intent still names v1.
        assert not list(bed.control.journal.in_flight())
        intent = bed.control.journal.committed_intent()
        assert intent[bed.sandbox.name].programs["app"] == v1.tag()

        # After recovery the data path still serves v1, and a fresh
        # inject re-lands every WR of the batch over the torn prefix.
        bed.host.recover()
        assert bed.sandbox.run_hook("ingress", bytes(256))[0] == baseline
        bed.sim.run_process(bed.control.inject(codeflow, v2, "ingress"))
        assert codeflow.deployed["app"].program is v2
        assert bed.sim.run_process(RemoteIntrospector(codeflow).audit()).clean
        execution, _ = bed.sandbox.run_hook("ingress", bytes(256))
        assert execution is not None

    def test_torn_batched_image_crc_detected_and_redeployed(self, testbed):
        """A tear inside the batched image write commits a corrupt
        image; the reconciler's CRC readback refuses to adopt it and
        redeploys from the artifact catalog instead."""
        bed = testbed
        codeflow = bed.codeflow
        v1 = make_stress_program(1_300, seed=7, name="app")
        bed.sim.run_process(bed.control.inject(codeflow, v1, "ingress"))

        injector = FaultInjector(codeflow, seed=3)
        injector.arm(FaultKind.TORN_WRITE)
        injector.attach()
        v2 = make_stress_program(1_300, seed=8, name="app")
        try:
            bed.sim.run_process(bed.control.inject(codeflow, v2, "ingress"))
        finally:
            injector.detach()

        # The tear hit the wire, not the catalog: the hook points at a
        # corrupt image and the data path detects it.
        with pytest.raises(SandboxCrash):
            bed.sandbox.run_hook("ingress", bytes(256))
        bed.sandbox.crashed = False

        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(
            Reconciler(plane).reconcile_all(codeflows)
        )
        assert reports[0].converged
        kinds = [action.kind for action in reports[0].actions]
        assert "redeploy" in kinds  # CRC readback rejected the torn image
        assert "adopt" not in kinds
        assert reports[0].audit.clean
        execution, _ = bed.sandboxes[0].run_hook("ingress", bytes(256))
        assert execution is not None


class TestCrashBetweenStageAndFlip:
    def test_reconciler_frees_every_staged_extent(self, monkeypatch):
        """The control plane dies after every leg staged (and raised its
        bubble) and before any flip.  The resumed incarnation's
        reconciler detaches each staged descriptor as an orphan: every
        hook still names the v1 image, and each target's allocator and
        descriptor slots are what they were before the broadcast."""
        from dataclasses import replace

        from repro.params import DEFAULT
        from repro.sim.core import Interrupt

        config = replace(
            DEFAULT, pipelined_deploy=True, tree_broadcast=True, tree_degree=2
        )
        bed = make_testbed(
            n_hosts=5, cores_per_host=2, hooks=("ingress",), with_agents=False,
            seed=3, config=config,
        )
        group = CodeFlowGroup(bed.codeflows)
        bed.sim.run_process(group.broadcast(programs_for(bed, 1), "ingress"))
        before = [
            (dict(cf.code_allocator._live), set(cf._metadata_used))
            for cf in bed.codeflows
        ]
        hooks = [cf.deployed[f"app{i}"].code_addr for i, cf in enumerate(bed.codeflows)]
        walk = CodeFlowGroup._walk

        def crash_before_the_flips(self, plan, members, kind, visit):
            if kind == "flip":
                bed.control.crash()
                raise Interrupt("control plane fail-stop")
            return walk(self, plan, members, kind, visit)

        monkeypatch.setattr(CodeFlowGroup, "_walk", crash_before_the_flips)
        doomed = bed.sim.spawn(group.broadcast(programs_for(bed, 2), "ingress"))
        bed.sim.run()
        with pytest.raises(Interrupt):
            _ = doomed.value
        staged = [len(cf._metadata_used) - len(used) for cf, (_, used) in zip(bed.codeflows, before)]
        assert staged == [1] * 5
        assert all(sb.bubble_active() for sb in bed.sandboxes)  # nobody lowered

        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
        assert all(report.converged for report in reports)
        for report in reports:
            kinds = sorted(action.kind for action in report.actions)
            assert kinds == ["adopt", "detach_orphan", "lower_bubble"]
        for index, cf in enumerate(codeflows):
            hook = cf.sandbox.host.cache.cpu_read(cf._hook_addr("ingress"), 8)
            assert int.from_bytes(hook, "little") == hooks[index]
            assert (dict(cf.code_allocator._live), set(cf._metadata_used)) == before[index]


class TestCrashUnderTheVerifier:
    def test_reconciler_frees_every_extent_staged_under_the_verifier(
        self, monkeypatch
    ):
        """The control plane dies once every leg has staged its Phase-0
        image and while the verifier still charges: no bubble rose and
        no hook moved.  The resumed incarnation's reconciler adopts v1
        and detaches each staged descriptor as an orphan: every hook
        still names the v1 image, and each target's allocator and
        descriptor slots are what they were before the broadcast."""
        from dataclasses import replace

        from repro.params import DEFAULT
        from repro.sim.core import Interrupt

        config = replace(
            DEFAULT, pipelined_deploy=True, tree_broadcast=True, tree_degree=2
        )
        bed = make_testbed(
            n_hosts=5, cores_per_host=2, hooks=("ingress",), with_agents=False,
            seed=3, config=config,
        )
        v1, v2 = (make_stress_program(400, seed=seed, name="app") for seed in (1, 2))
        group = CodeFlowGroup(bed.codeflows)
        bed.sim.run_process(group.broadcast([v1] * 5, "ingress"))
        before = [
            (dict(cf.code_allocator._live), set(cf._metadata_used))
            for cf in bed.codeflows
        ]
        hooks = [cf.deployed["app"].code_addr for cf in bed.codeflows]
        verified = bed.control.validations_run
        charging = []
        walk = CodeFlowGroup._walk

        def crash_after_the_stages(self, plan, members, kind, visit):
            yield from walk(self, plan, members, kind, visit)
            if kind == "stage":
                charging.append(bed.control.validations_run == verified)
                bed.control.crash()
                raise Interrupt("control plane fail-stop")

        monkeypatch.setattr(CodeFlowGroup, "_walk", crash_after_the_stages)
        doomed = bed.sim.spawn(group.broadcast([v2] * 5, "ingress"))
        bed.sim.run()
        with pytest.raises(Interrupt):
            _ = doomed.value
        assert charging == [True]  # the verdict was still pending
        staged = [len(cf._metadata_used) - len(used) for cf, (_, used) in zip(bed.codeflows, before)]
        assert staged == [1] * 5
        assert not any(sb.bubble_active() for sb in bed.sandboxes)

        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
        assert all(report.converged for report in reports)
        for report in reports:
            kinds = sorted(action.kind for action in report.actions)
            assert kinds == ["adopt", "detach_orphan"]
        for index, cf in enumerate(codeflows):
            hook = cf.sandbox.host.cache.cpu_read(cf._hook_addr("ingress"), 8)
            assert int.from_bytes(hook, "little") == hooks[index]
            assert (dict(cf.code_allocator._live), set(cf._metadata_used)) == before[index]

    @pytest.mark.parametrize("use_bbu", [True, False], ids=["bbu", "no-bbu"])
    def test_a_successor_under_the_verifier_fences_the_raise(
        self, monkeypatch, use_bbu
    ):
        """A successor claims one target while the verifier charges,
        after that target staged: the raise's own epoch READ refuses it
        -- without BBU the raise is that READ alone -- so the fenced-out
        plane neither raises its bubble nor flips its hook (which the hb
        checker would report as a ``stale-epoch-write``).  Its siblings
        flipped as their own raises landed, so the all-or-nothing
        broadcast aborts by rolling them back to v1: every hook names
        v1 and every allocator is as before the broadcast, while each
        rolled-back target's one descriptor slot is v2's (a rollback
        never rewrites the descriptor).  A restarted plane adopts v1
        and detaches that stale descriptor as an orphan."""
        from dataclasses import replace

        from repro.core.codeflow import CodeFlow
        from repro.core.control_plane import RdxControlPlane
        from repro.ebpf.interpreter import Interpreter
        from repro.errors import BroadcastAborted
        from repro.hb import checker
        from repro.params import DEFAULT

        config = replace(
            DEFAULT, pipelined_deploy=True, tree_broadcast=True, tree_degree=2,
            hb_check=True,
        )
        bed = make_testbed(
            n_hosts=5, cores_per_host=2, hooks=("ingress",), with_agents=False,
            seed=3, config=config,
        )
        v1, v2 = (make_stress_program(400, seed=seed, name="app") for seed in (1, 2))
        group = CodeFlowGroup(bed.codeflows)
        bed.sim.run_process(group.broadcast([v1] * 5, "ingress"))
        before = [dict(cf.code_allocator._live) for cf in bed.codeflows]
        hooks = [cf.deployed["app"].code_addr for cf in bed.codeflows]
        victim = bed.codeflows[4]  # relayed: its raise rides its parent's QP
        walk = CodeFlowGroup._walk
        write_bubble, flip_prog = CodeFlowGroup._write_bubble, CodeFlow.flip_prog
        raised, flipped = [], []

        def claim_after_the_stages(self, plan, members, kind, visit):
            yield from walk(self, plan, members, kind, visit)
            if kind == "stage":
                successor = RdxControlPlane(
                    bed.control.host, journal=bed.control.journal
                )
                yield from successor.create_codeflow(victim.sandbox)

        def spy_bubble(self, codeflow, value, *args):
            if value:
                raised.append(codeflow.sandbox.name)
            return write_bubble(self, codeflow, value, *args)

        def spy_flip(self, *args, **kwargs):
            flipped.append(self.sandbox.name)
            return flip_prog(self, *args, **kwargs)

        monkeypatch.setattr(CodeFlowGroup, "_walk", claim_after_the_stages)
        monkeypatch.setattr(CodeFlowGroup, "_write_bubble", spy_bubble)
        monkeypatch.setattr(CodeFlow, "flip_prog", spy_flip)
        with pytest.raises(BroadcastAborted) as aborted:
            bed.sim.run_process(
                group.broadcast([v2] * 5, "ingress", use_bbu=use_bbu)
            )
        outcomes = aborted.value.result.outcomes
        assert [o.error_kind for o in outcomes] == [""] * 4 + ["StaleEpochError"]
        assert [o.rolled_back for o in outcomes] == [True] * 4 + [False]
        assert victim.sandbox.name not in raised + flipped
        assert sorted(flipped) == sorted(cf.sandbox.name for cf in bed.codeflows[:4])
        assert not any(sb.bubble_active() for sb in bed.sandboxes)
        for index, cf in enumerate(bed.codeflows):
            hook = cf.sandbox.host.cache.cpu_read(cf._hook_addr("ingress"), 8)
            assert int.from_bytes(hook, "little") == hooks[index]
            assert dict(cf.code_allocator._live) == before[index]
            assert len(cf._metadata_used) == 1
        assert checker.consume(bed.sim).findings == []

        bed.control.crash()
        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
        for report in reports:
            assert report.converged
            assert sorted(a.kind for a in report.actions) == ["adopt", "detach_orphan"]
        ctx = bytes(range(256))
        r0 = Interpreter().run(v1.insns, ctx).r0
        assert r0 != Interpreter().run(v2.insns, ctx).r0
        for sandbox in bed.sandboxes:
            assert sandbox.run_hook("ingress", ctx)[0].r0 == r0

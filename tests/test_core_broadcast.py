"""Collective CodeFlow / BBU tests (§4)."""

import pytest

from repro.core.api import rdx_broadcast
from repro.core.broadcast import CodeFlowGroup
from repro.errors import ConsistencyError, DeployError
from repro.ebpf.stress import make_stress_program


def programs_for(bed, size=100):
    return [
        make_stress_program(size, seed=i + 1, name=f"bc{i}")
        for i in range(len(bed.codeflows))
    ]


class TestBroadcast:
    def test_deploys_everywhere(self, testbed2):
        bed = testbed2
        progs = programs_for(bed)
        result = bed.sim.run_process(
            rdx_broadcast(bed.codeflows, progs, "ingress")
        )
        assert result.group_size == 2
        for sandbox in bed.sandboxes:
            out, _ = sandbox.run_hook("ingress", bytes(256))
            assert out is not None

    def test_bubble_raised_then_lowered(self, testbed2):
        bed = testbed2
        # Warm the registry so Phase 0 (prepare) is instant and the
        # observer lands inside the bubble window.
        for program, codeflow in zip(programs_for(bed), bed.codeflows):
            bed.sim.run_process(bed.control.prepare_for(codeflow, program))
        observed = {"during": None}

        def observer():
            # Poll through the (microsecond-scale) bubble window and
            # record the first instant every target's bubble is up at
            # once.  A fixed sample point would race the pipelined
            # fast path, whose window is a fraction of the serial one.
            for _ in range(500):
                yield bed.sim.timeout(1)
                states = [sb.bubble_active() for sb in bed.sandboxes]
                if all(states):
                    observed["during"] = states
                    return

        bed.sim.spawn(observer())
        result = bed.sim.run_process(
            rdx_broadcast(bed.codeflows, programs_for(bed), "ingress")
        )
        assert observed["during"] == [True, True]
        assert all(not sb.bubble_active() for sb in bed.sandboxes)
        assert result.bubble_window_us > 0

    def test_window_is_microseconds(self, testbed2):
        bed = testbed2
        for program, codeflow in zip(programs_for(bed), bed.codeflows):
            bed.sim.run_process(
                bed.control.artifacts.prepare(program, arch=codeflow.manifest.arch)
            )
        result = bed.sim.run_process(
            rdx_broadcast(bed.codeflows, programs_for(bed), "ingress")
        )
        assert result.bubble_window_us < 1_000  # sub-millisecond

    def test_dependency_order_controls_lowering(self, testbed2):
        bed = testbed2
        lowered = []

        original = CodeFlowGroup._write_bubble

        def spying(self, codeflow, value, sync, flushes=None):
            if value == 0:
                lowered.append(codeflow.sandbox.name)
            return original(self, codeflow, value, sync, flushes)

        CodeFlowGroup._write_bubble = spying
        try:
            bed.sim.run_process(
                rdx_broadcast(
                    bed.codeflows, programs_for(bed), "ingress",
                    dependency_order=[0, 1],
                )
            )
        finally:
            CodeFlowGroup._write_bubble = original
        assert lowered == [bed.sandboxes[0].name, bed.sandboxes[1].name]

    def test_bad_dependency_order(self, testbed2):
        bed = testbed2

        def flow():
            yield from CodeFlowGroup(bed.codeflows).broadcast(
                programs_for(bed), "ingress", dependency_order=[0, 0]
            )

        process = bed.sim.spawn(flow())
        bed.sim.run()
        with pytest.raises(ConsistencyError):
            _ = process.value

    def test_count_mismatch(self, testbed2):
        bed = testbed2

        def flow():
            yield from CodeFlowGroup(bed.codeflows).broadcast(
                programs_for(bed)[:1], "ingress"
            )

        process = bed.sim.spawn(flow())
        bed.sim.run()
        with pytest.raises(DeployError, match="one program per target"):
            _ = process.value

    def test_empty_group_rejected(self):
        with pytest.raises(DeployError):
            CodeFlowGroup([])

    def test_without_bbu_no_bubble(self, testbed2):
        bed = testbed2
        for program, codeflow in zip(programs_for(bed), bed.codeflows):
            bed.sim.run_process(bed.control.prepare_for(codeflow, program))
        bubble_writes = []
        original = CodeFlowGroup._write_bubble

        def spying(self, codeflow, value, sync, flushes=None):
            bubble_writes.append(value)
            return original(self, codeflow, value, sync, flushes)

        CodeFlowGroup._write_bubble = spying
        try:
            result = bed.sim.run_process(
                rdx_broadcast(bed.codeflows, programs_for(bed), "ingress",
                              use_bbu=False)
            )
        finally:
            CodeFlowGroup._write_bubble = original
        # Without BBU there is no bubble phase: no flag was ever
        # raised (or lowered) and the "window" is just the raw deploy
        # fan-out span.
        assert bubble_writes == []
        assert result.bubble_raised_us <= result.deploys_done_us
        assert all(not sb.bubble_active() for sb in bed.sandboxes)


class TestBubbleLeak:
    def test_failed_deploy_still_lowers_every_bubble(self, testbed2):
        """Regression: a deploy failure mid-broadcast must not strand
        targets behind raised bubble flags (§2.2 agent lockout)."""
        from repro.core.codeflow import CodeFlow
        from repro.errors import BroadcastAborted

        bed = testbed2
        # Patch at stage_prog, the choke point every route passes
        # through (linking first, or with the plan's Phase-0 image), so
        # the failure bites regardless of the forest's degree.
        original = CodeFlow.stage_prog

        def failing(self, program, linked, hook_name, **kwargs):
            if self is bed.codeflows[1]:
                raise DeployError("target 1 deploy blew up")
            report = yield from original(
                self, program, linked, hook_name, **kwargs
            )
            return report

        CodeFlow.stage_prog = failing
        try:
            process = bed.sim.spawn(
                rdx_broadcast(bed.codeflows, programs_for(bed), "ingress")
            )
            bed.sim.run()
        finally:
            CodeFlow.stage_prog = original
        # The failure is surfaced as a transactional abort, not
        # swallowed; the per-target error rides along in the message.
        with pytest.raises(BroadcastAborted, match="blew up"):
            _ = process.value
        # ... and no bubble flag stays raised on any target.
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_target_dead_under_its_raised_bubble_is_counted_not_raised(
        self, testbed2, monkeypatch
    ):
        """A target dies after its stage posted the bubble raise and
        before the lower walk (at the ``bubbled`` phase): its lower
        fails, is counted once and never escapes, the sibling's bubble
        still comes down, and the broadcast returns."""
        bed = testbed2
        victim = bed.sandboxes[1]
        journal = bed.control.journal
        record_phase = journal.phase

        def phase(txn, name, **detail):
            record_phase(txn, name, **detail)
            if name == "bubbled":
                victim.host.crash()

        monkeypatch.setattr(journal, "phase", phase)
        result = bed.sim.run_process(
            rdx_broadcast(
                bed.codeflows, programs_for(bed), "ingress", allow_partial=True
            )
        )
        assert result.outcomes[1].raised
        assert sum(
            metric.value for metric in bed.obs.registry
            if metric.name == "rdx.broadcast.bubble_lower_failed"
        ) == 1
        assert not bed.sandboxes[0].bubble_active()

    def test_torn_write_aborts_and_lowers_every_bubble(self, testbed2):
        """The headline scenario: one target's image write is torn
        in-flight.  The CRC verify readback must surface it (a
        ConsistencyError, not silence), and every bubble must drop."""
        from repro.core.faults import FaultInjector, FaultKind
        from repro.errors import BroadcastAborted

        bed = testbed2
        injector = FaultInjector(bed.codeflows[1], seed=7)
        injector.arm(FaultKind.TORN_WRITE)
        injector.attach()
        try:
            process = bed.sim.spawn(
                rdx_broadcast(bed.codeflows, programs_for(bed), "ingress")
            )
            bed.sim.run()
        finally:
            injector.detach()
        with pytest.raises(BroadcastAborted) as excinfo:
            _ = process.value
        assert isinstance(excinfo.value, ConsistencyError)  # not swallowed
        outcome = excinfo.value.result.outcomes[1]
        assert not outcome.ok
        assert outcome.error_kind == "ConsistencyError"
        # No target is stranded buffering behind a raised bubble.
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_a_corrupt_stage_is_caught_before_its_flip(self, testbed2, monkeypatch):
        """A bit flipped in one target's image fails its CRC read-back
        before its hook moves: no commit CAS reaches that target.  The
        broadcast aborts before any flip, so it posts no rollback CAS
        anywhere either.  Every hook still names its v1 image."""
        from repro.core.faults import FaultInjector, FaultKind
        from repro.core.sync import RemoteSync
        from repro.errors import BroadcastAborted

        bed = testbed2
        bed.sim.run_process(
            rdx_broadcast(bed.codeflows, programs_for(bed), "ingress")
        )
        hooks = {cf.sandbox.name: cf._hook_addr("ingress") for cf in bed.codeflows}
        v1 = [cf.deployed[f"bc{i}"].code_addr for i, cf in enumerate(bed.codeflows)]
        flips = []
        install = RemoteSync.install

        def spy_install(self, ops, qword_addr, *args, **kwargs):
            if qword_addr == hooks[self.sandbox.name]:
                flips.append(self.sandbox.name)
            return install(self, ops, qword_addr, *args, **kwargs)

        monkeypatch.setattr(RemoteSync, "install", spy_install)
        injector = FaultInjector(bed.codeflows[1], seed=7)
        injector.arm(FaultKind.BIT_FLIP)
        injector.attach()
        try:
            process = bed.sim.spawn(
                rdx_broadcast(bed.codeflows, programs_for(bed, 101), "ingress")
            )
            bed.sim.run()
        finally:
            injector.detach()
        with pytest.raises(BroadcastAborted) as excinfo:
            _ = process.value
        assert excinfo.value.result.outcomes[1].error_kind == "ConsistencyError"
        assert flips == []
        assert [
            cf.deployed[f"bc{i}"].code_addr for i, cf in enumerate(bed.codeflows)
        ] == v1
        for cf, addr in zip(bed.codeflows, v1):
            assert cf.sandbox.host.cache.cpu_read(hooks[cf.sandbox.name], 8) == (
                addr.to_bytes(8, "little")
            )
        assert all(not sb.bubble_active() for sb in bed.sandboxes)


class TestBbuConsistencyInvariant:
    def test_no_request_observes_mixed_logic(self):
        """The §4 guarantee: with BBU, a request that checks the bubble
        flag before executing never sees a mix of old and new logic."""
        from repro.mesh.apps import AppSpec, MicroserviceApp
        from repro.core.api import bootstrap_sandbox
        from repro.core.control_plane import RdxControlPlane
        from repro.mesh.consistency import ConsistencyProbe
        from repro.net.topology import Host
        from repro.sim.core import Simulator
        from repro.wasm.filters import make_header_filter

        sim = Simulator()
        app = MicroserviceApp(
            sim, AppSpec(n_services=4, with_agents=False)
        )
        control_host = Host(sim, "ctl", cores=8, dram_bytes=32 * 2**20)
        app.fabric.attach(control_host)
        control = RdxControlPlane(control_host)
        codeflows = []
        for service in app.services():
            sandbox = app.pods[service].proxy.sandbox
            bootstrap_sandbox(sandbox)
            codeflows.append(sim.run_process(control.create_codeflow(sandbox)))

        # Install v1 everywhere via broadcast first.
        v1 = [make_header_filter(version=1) for _ in codeflows]
        sim.run_process(rdx_broadcast(codeflows, v1, "filter0"))

        probe = ConsistencyProbe(app, interval_us=5.0)
        probe.start(duration_us=100_000)

        v2 = [make_header_filter(version=2) for _ in codeflows]
        sim.run_process(rdx_broadcast(codeflows, v2, "filter0"))
        sim.run(until=sim.now + 200)
        probe.stop()
        sim.run()

        result = probe.result()
        assert result.probes_sent > 0
        assert result.mixed_count == 0  # the invariant

    @pytest.mark.arm(pipelined_deploy=True, tree_broadcast=False)
    @pytest.mark.parametrize(
        "seed, mixed, unbubbled, served",
        [(1, 6, 5, 66), (2, 4, 7, 63), (3, 8, 7, 60)],
    )
    def test_requests_in_flight_see_mixed_logic_known_hole(
        self, config, seed, mixed, unbubbled, served
    ):
        """Known hole: BBU holds a request only at a hop whose bubble is
        up.  A request that ran v1 at one hop reaches the next after that
        hop's bubble dropped, and runs v2 there: a hop takes 120 us, the
        window ~30 us.  The instant probe above never sees it; an open
        loop of real requests does -- about as often as without BBU
        (``unbubbled``), whose flips land closer together."""
        from repro.core.api import bootstrap_sandbox
        from repro.core.control_plane import RdxControlPlane
        from repro.mesh.apps import AppSpec, MicroserviceApp
        from repro.mesh.workload import OpenLoopLoad
        from repro.net.topology import Host
        from repro.params import configure
        from repro.sim.core import Simulator
        from repro.wasm.filters import make_header_filter

        def run(use_bbu):
            sim = Simulator()
            configure(sim, config)
            app = MicroserviceApp(sim, AppSpec(n_services=11, with_agents=False))
            control_host = Host(sim, "ctl", cores=8, dram_bytes=32 * 2**20)
            app.fabric.attach(control_host)
            control = RdxControlPlane(control_host)
            codeflows = []
            for service in app.services():
                sandbox = app.pods[service].proxy.sandbox
                bootstrap_sandbox(sandbox)
                codeflows.append(sim.run_process(control.create_codeflow(sandbox)))
            group = CodeFlowGroup(codeflows)

            def version(number):
                return [make_header_filter(version=number) for _ in codeflows]

            sim.run_process(group.broadcast(version(1), "filter0"))

            def update():
                yield sim.timeout(1_000)
                yield from group.broadcast(version(2), "filter0", use_bbu=use_bbu)

            sim.spawn(update())
            stats = sim.run_process(OpenLoopLoad(app, 20_000, seed=seed).run(3_000))
            return stats.mixed, len(stats.records)

        assert run(use_bbu=True) == (mixed, served)
        assert run(use_bbu=False) == (unbubbled, served)

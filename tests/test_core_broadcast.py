"""Collective CodeFlow / BBU tests (§4)."""

import pytest

from repro.core.api import rdx_broadcast
from repro.core.broadcast import CodeFlowGroup
from repro.errors import ConsistencyError, DeployError
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed


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
                bed.control.prepare(program, arch=codeflow.manifest.arch)
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
        # Patch at deploy_prog, the choke point every route passes
        # through (via inject, or with the plan's Phase-0 image), so
        # the failure bites regardless of the forest's degree.
        original = CodeFlow.deploy_prog

        def failing(self, program, linked, hook_name, **kwargs):
            if self is bed.codeflows[1]:
                raise DeployError("target 1 deploy blew up")
            report = yield from original(
                self, program, linked, hook_name, **kwargs
            )
            return report

        CodeFlow.deploy_prog = failing
        try:
            process = bed.sim.spawn(
                rdx_broadcast(bed.codeflows, programs_for(bed), "ingress")
            )
            bed.sim.run()
        finally:
            CodeFlow.deploy_prog = original
        # The failure is surfaced as a transactional abort, not
        # swallowed; the per-target error rides along in the message.
        with pytest.raises(BroadcastAborted, match="blew up"):
            _ = process.value
        # ... and no bubble flag stays raised on any target.
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

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

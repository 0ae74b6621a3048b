"""Tests for fault injection, control loops, and QoS isolation (§7)."""

import pytest

from repro.core.faults import FaultInjector, FaultKind, crash_campaign
from repro.core.loops import ControlLoop, ThresholdPolicy
from repro.core.qos import QosScheduler, TenantQuota
from repro.core.xstate import XStateSpec
from repro.ebpf.maps import MapType
from repro.ebpf.stress import make_stress_program
from repro.errors import ReproError, SandboxCrash, SecurityError


def _attached(codeflow, kind=None, seed=0):
    """An injector filtering ``codeflow``'s sync ops, ``kind`` armed."""
    injector = FaultInjector(codeflow, seed=seed)
    if kind is not None:
        injector.arm(kind)
    injector.attach()
    return injector


class TestFaultInjector:
    def _deploy(self, testbed, program):
        testbed.sim.run_process(
            testbed.control.inject(
                testbed.codeflow, program, "ingress", delta=False
            )
        )

    def test_torn_write_detected(self, testbed):
        program = make_stress_program(500, seed=1)
        injector = _attached(testbed.codeflow, FaultKind.TORN_WRITE)
        self._deploy(testbed, program)
        with pytest.raises(SandboxCrash):
            testbed.sandbox.run_hook("ingress", bytes(256))
        assert [f.kind for f in injector.injected] == [FaultKind.TORN_WRITE]

    def test_bit_flip_detected(self, testbed):
        program = make_stress_program(500, seed=1)
        injector = _attached(testbed.codeflow, FaultKind.BIT_FLIP, seed=7)
        self._deploy(testbed, program)
        with pytest.raises(SandboxCrash):
            testbed.sandbox.run_hook("ingress", bytes(256))
        assert [f.kind for f in injector.injected] == [FaultKind.BIT_FLIP]

    def test_clean_deploy_without_armed_fault(self, testbed):
        program = make_stress_program(500, seed=1)
        injector = _attached(testbed.codeflow)
        self._deploy(testbed, program)
        result, _ = testbed.sandbox.run_hook("ingress", bytes(256))
        assert result is not None
        assert injector.injected == []

    def test_dropped_flush_leaves_stale_view(self, testbed):
        addr = testbed.codeflow.manifest.scratchpad_addr
        testbed.host.cache.cpu_read(addr, 8)  # cache the line
        sync = testbed.codeflow.sync
        injector = _attached(testbed.codeflow, FaultKind.DROPPED_FLUSH)

        def flow():
            yield from sync.write(addr, b"FRESHDAT")
            yield from sync.flush_chained([(addr, 8)], chained=False)

        testbed.sim.run_process(flow())
        # The flush was dropped, so the CPU still sees stale bytes.
        assert testbed.host.cache.cpu_read(addr, 8) == bytes(8)
        assert [f.kind for f in injector.injected] == [FaultKind.DROPPED_FLUSH]

    def test_stale_read_fault(self, testbed):
        # Stale reads bite the code region only (image read-backs).
        addr = testbed.codeflow.manifest.code_addr
        testbed.host.memory.write(addr, b"REALDATA")
        sync = testbed.codeflow.sync
        injector = _attached(testbed.codeflow, FaultKind.STALE_READ)

        def flow():
            data = yield from sync.read(addr, 8)
            return data

        assert testbed.sim.run_process(flow()) == bytes(8)
        assert [f.kind for f in injector.injected] == [FaultKind.STALE_READ]
        # One-shot: the next read sees DRAM.
        assert testbed.sim.run_process(flow()) == b"REALDATA"

    def test_dropped_flush_detected_and_recovered(self, testbed):
        """A dropped flush is *detectable* (CPU view disagrees with
        DRAM) and recoverable by re-issuing the flush."""
        addr = testbed.codeflow.manifest.scratchpad_addr
        testbed.host.cache.cpu_read(addr, 8)  # cache the stale line
        sync = testbed.codeflow.sync
        _attached(testbed.codeflow, FaultKind.DROPPED_FLUSH)

        def flow():
            yield from sync.write(addr, b"FRESHDAT")
            yield from sync.flush_chained([(addr, 8)], chained=False)

        testbed.sim.run_process(flow())
        # Detection: the CPU's cached view disagrees with DRAM.
        assert testbed.host.cache.cpu_read(addr, 8) != b"FRESHDAT"
        assert testbed.host.memory.read(addr, 8) == b"FRESHDAT"

        # Recovery: re-issue the flush (the one-shot fault is spent).
        def reflush():
            yield from sync.flush_chained([(addr, 8)], chained=False)

        testbed.sim.run_process(reflush())
        assert testbed.host.cache.cpu_read(addr, 8) == b"FRESHDAT"

    def test_stale_read_detected_and_recovered_by_rollback(self, testbed):
        """A stale readback fails the image CRC (detection); rollback
        to the previous resident image recovers the data path."""
        import zlib

        name = "patchme"
        for version, (size, seed) in enumerate([(300, 2), (320, 3)], 1):
            program = make_stress_program(size, seed=seed, name=name)
            testbed.sim.run_process(
                testbed.control.inject(testbed.codeflow, program, "ingress")
            )
        record = testbed.codeflow.deployed[name]
        v1_addr = record.history[-1]

        injector = FaultInjector(testbed.codeflow)
        injector.arm(FaultKind.STALE_READ)
        injector.attach()

        def readback():
            data = yield from testbed.codeflow.sync.read(
                record.code_addr, record.code_len
            )
            return data

        try:
            stale = testbed.sim.run_process(readback())
        finally:
            injector.detach()
        # Detection: pre-write bytes cannot carry the image's CRC.
        stored = int.from_bytes(stale[-4:], "little")
        assert zlib.crc32(stale[:-4]) & 0xFFFFFFFF != stored

        # Recovery: one pointer flip back to the last good image.
        testbed.sim.run_process(testbed.codeflow.rollback(name))
        assert testbed.codeflow.deployed[name].code_addr == v1_addr
        out, _ = testbed.sandbox.run_hook("ingress", bytes(256))
        assert out is not None

    def test_double_arm_rejected(self, testbed):
        injector = FaultInjector(testbed.codeflow)
        injector.arm(FaultKind.BIT_FLIP)
        with pytest.raises(ReproError):
            injector.arm(FaultKind.TORN_WRITE)

    def test_crash_campaign_detects_every_fault(self, testbed):
        program = make_stress_program(500, seed=5)
        injected, detected = crash_campaign(testbed, program, rounds=6)
        assert injected == 6
        assert detected == 6  # CRC catches all payload corruption


class TestControlLoop:
    @pytest.fixture
    def loop_rig(self, testbed):
        spec = XStateSpec("lb_counters", MapType.HASH, 4, 8, 8)
        handle = testbed.sim.run_process(testbed.codeflow.deploy_xstate(spec))
        guard = make_stress_program(100, seed=9, name="guard")
        policy = ThresholdPolicy(
            counter_key=(1).to_bytes(4, "little"),
            high=100,
            low=10,
            guard_program=guard,
            hook_name="egress",
        )
        loop = ControlLoop(testbed.codeflow, handle, policy, interval_us=500)
        return testbed, handle, loop

    def _set_counter(self, testbed, handle, value):
        testbed.sim.run_process(
            testbed.codeflow.xstate_update(
                handle, (1).to_bytes(4, "little"), value.to_bytes(8, "little")
            )
        )

    def test_deploys_guard_above_threshold(self, loop_rig):
        testbed, handle, loop = loop_rig
        self._set_counter(testbed, handle, 500)
        observation = testbed.sim.run_process(loop.run_once())
        assert observation.action == "deploy"
        result, _ = testbed.sandbox.run_hook("egress", bytes(256))
        assert result is not None

    def test_no_action_in_band(self, loop_rig):
        testbed, handle, loop = loop_rig
        self._set_counter(testbed, handle, 50)
        observation = testbed.sim.run_process(loop.run_once())
        assert observation.action == "none"

    def test_retires_guard_on_recovery(self, loop_rig):
        testbed, handle, loop = loop_rig
        self._set_counter(testbed, handle, 500)
        testbed.sim.run_process(loop.run_once())
        self._set_counter(testbed, handle, 5)
        observation = testbed.sim.run_process(loop.run_once())
        assert observation.action == "retire"
        result, _ = testbed.sandbox.run_hook("egress", bytes(256))
        assert result is None

    def test_hysteresis_prevents_flapping(self, loop_rig):
        testbed, handle, loop = loop_rig
        self._set_counter(testbed, handle, 500)
        testbed.sim.run_process(loop.run_once())
        self._set_counter(testbed, handle, 50)  # between low and high
        observation = testbed.sim.run_process(loop.run_once())
        assert observation.action == "none"  # still deployed

    def test_background_loop_reacts(self, loop_rig):
        testbed, handle, loop = loop_rig
        loop.start(duration_us=20_000)
        testbed.sim.run(until=2_000)
        self._set_counter(testbed, handle, 900)
        testbed.sim.run(until=10_000)
        loop.stop()
        testbed.sim.run()
        assert ("deploy" in {action for _t, action in loop.actions()})
        latency = loop.reaction_latency_us()
        assert latency is not None and latency <= 2 * loop.interval_us

    def test_bad_hysteresis(self):
        with pytest.raises(ReproError):
            ThresholdPolicy(
                counter_key=b"\x00" * 4, high=5, low=10,
                guard_program=None, hook_name="h",
            )


class TestQos:
    @pytest.fixture
    def scheduler(self, testbed):
        scheduler = QosScheduler(testbed.control)
        scheduler.register_tenant(
            TenantQuota("bulk", rate_bytes_per_s=2e6, burst_bytes=20_000,
                        priority=5)
        )
        scheduler.register_tenant(
            TenantQuota("urgent", rate_bytes_per_s=1e9, burst_bytes=1e6,
                        priority=0)
        )
        return testbed, scheduler

    def test_deploy_within_burst_unthrottled(self, scheduler):
        testbed, qos = scheduler
        program = make_stress_program(100, seed=1)  # 800 bytes
        report = testbed.sim.run_process(
            qos.inject("bulk", testbed.codeflow, program, "ingress")
        )
        assert report.total_us > 0
        assert qos.usage["bulk"].throttled_us == 0

    def test_rate_limit_throttles_bulk(self, scheduler):
        testbed, qos = scheduler
        program = make_stress_program(4_000, seed=1)  # 32 KB > burst

        def flood():
            for _ in range(3):
                yield from qos.inject(
                    "bulk", testbed.codeflow, program, "ingress",
                    retain_history=False,
                )

        testbed.sim.run_process(flood())
        assert qos.usage["bulk"].throttled_us > 0
        assert qos.usage["bulk"].deploys == 3

    def test_unknown_tenant_rejected(self, scheduler):
        testbed, qos = scheduler
        program = make_stress_program(100, seed=1)
        process = testbed.sim.spawn(
            qos.inject("ghost", testbed.codeflow, program, "ingress")
        )
        testbed.sim.run()
        with pytest.raises(SecurityError):
            _ = process.value

    def test_duplicate_tenant_rejected(self, scheduler):
        _testbed, qos = scheduler
        with pytest.raises(SecurityError):
            qos.register_tenant(
                TenantQuota("bulk", rate_bytes_per_s=1, burst_bytes=1)
            )

    def test_priority_lane_overtakes_bulk(self, testbed2):
        bed = testbed2
        qos = QosScheduler(bed.control)
        qos.register_tenant(
            TenantQuota("bulk", rate_bytes_per_s=1e9, burst_bytes=1e9,
                        priority=5)
        )
        qos.register_tenant(
            TenantQuota("urgent", rate_bytes_per_s=1e9, burst_bytes=1e9,
                        priority=0)
        )
        bulk_prog = make_stress_program(40_000, seed=1, name="bulk1")
        bulk_prog2 = make_stress_program(40_000, seed=2, name="bulk2")
        urgent_prog = make_stress_program(100, seed=3, name="hotfix")
        done_order = []

        def tenant_flow(tenant, flow, program, hook):
            yield from qos.inject(tenant, flow, program, hook)
            done_order.append(program.name)

        # Two bulk deploys queue up; an urgent hotfix arrives after.
        bed.sim.spawn(tenant_flow("bulk", bed.codeflows[0], bulk_prog, "ingress"))
        bed.sim.spawn(tenant_flow("bulk", bed.codeflows[0], bulk_prog2, "egress"))

        def late_urgent():
            yield bed.sim.timeout(5.0)
            yield from tenant_flow(
                "urgent", bed.codeflows[1], urgent_prog, "ingress"
            )

        bed.sim.spawn(late_urgent())
        bed.sim.run()
        # The hotfix must not wait behind the second bulk deploy.
        assert done_order.index("hotfix") < done_order.index("bulk2")
        report = qos.tenant_report()
        assert report["urgent"].deploys == 1
        assert report["bulk"].deploys == 2

"""Agent baseline tests: daemon, controller, rollouts."""

import pytest

from repro import params
from repro.agent.controller import AgentController
from repro.agent.rollout import RolloutPlan, rollout_eventual, rollout_planned
from repro.ebpf.stress import make_stress_program
from repro.errors import ConsistencyError
from repro.exp.harness import make_testbed
from repro.mesh.apps import AppSpec, MicroserviceApp
from repro.net.topology import Host
from repro.sim.core import Simulator
from repro.wasm.filters import make_header_filter


class TestDaemonInject:
    def test_inject_installs_and_runs(self, testbed):
        program = make_stress_program(100, seed=1)
        breakdown = testbed.sim.run_process(
            testbed.agent.inject(program, "ingress")
        )
        assert breakdown.total_us > 0
        result, _cost = testbed.sandbox.run_hook("ingress", bytes(range(256)))
        from repro.ebpf.interpreter import Interpreter

        assert result.r0 == Interpreter().run(program.insns, bytes(range(256))).r0

    def test_breakdown_phases_sum_to_total(self, testbed):
        program = make_stress_program(1300, seed=2)
        breakdown = testbed.sim.run_process(
            testbed.agent.inject(program, "ingress")
        )
        assert sum(breakdown.phases().values()) == pytest.approx(
            breakdown.total_us, rel=0.01
        )

    def test_verify_jit_dominates(self, testbed):
        """§2.2 Obs 1: compilation is >= 90% of the load path."""
        program = make_stress_program(1300, seed=3)
        breakdown = testbed.sim.run_process(
            testbed.agent.inject(program, "ingress")
        )
        share = (breakdown.verify_us + breakdown.jit_us) / breakdown.total_us
        assert share >= 0.90

    def test_cost_scales_with_size(self, testbed):
        small = testbed.sim.run_process(
            testbed.agent.inject(make_stress_program(100, seed=1), "ingress")
        )
        large = testbed.sim.run_process(
            testbed.agent.inject(make_stress_program(5000, seed=1), "ingress")
        )
        assert large.total_us > 10 * small.total_us

    def test_injection_burns_host_cpu(self, testbed):
        before = testbed.host.cpu.busy_us
        testbed.sim.run_process(
            testbed.agent.inject(make_stress_program(1300, seed=1), "ingress")
        )
        burned = testbed.host.cpu.busy_us - before
        assert burned >= params.verify_cost_us(1300)

    def test_wasm_injection(self, testbed):
        module = make_header_filter(version=1, padding=50)
        breakdown = testbed.sim.run_process(
            testbed.agent.inject(module, "ingress")
        )
        assert breakdown.verify_us > 0
        assert testbed.agent.stats.injections == 1

    def test_remove(self, testbed):
        program = make_stress_program(100, seed=1)
        testbed.sim.run_process(testbed.agent.inject(program, "ingress"))
        testbed.sim.run_process(testbed.agent.remove(program))
        result, _ = testbed.sandbox.run_hook("ingress", bytes(256))
        assert result is None
        assert testbed.agent.stats.removals == 1

    def test_state_polling_burns_cpu(self, testbed):
        testbed.agent.start_state_polling(
            interval_us=1_000, cost_us=100, duration_us=10_000
        )
        testbed.sim.run()
        assert testbed.agent.stats.polls >= 9
        assert testbed.agent.stats.poll_cpu_us >= 900

    def test_stop_state_polling(self, testbed):
        testbed.agent.start_state_polling(interval_us=1_000, cost_us=10)
        testbed.sim.run(until=5_000)
        testbed.agent.stop_state_polling()
        polls = testbed.agent.stats.polls
        testbed.sim.run(until=20_000)
        assert testbed.agent.stats.polls == polls


class TestController:
    @pytest.fixture
    def rig(self, testbed):
        controller = AgentController(testbed.cluster.control_host)
        return testbed, controller

    def test_push_applies_remotely(self, rig):
        testbed, controller = rig
        program = make_stress_program(100, seed=1)
        result = testbed.sim.run_process(
            controller.push(testbed.agent, program, "ingress")
        )
        assert result.latency_us > params.CONTROLLER_BATCH_DELAY_US
        out, _ = testbed.sandbox.run_hook("ingress", bytes(256))
        assert out is not None

    def test_push_many_concurrent(self):
        bed = make_testbed(n_hosts=3, cores_per_host=4)
        controller = AgentController(bed.cluster.control_host)
        assignments = [
            (agent, make_stress_program(100, seed=i + 1), "ingress")
            for i, agent in enumerate(bed.agents)
        ]
        results = bed.sim.run_process(controller.push_many(assignments))
        assert len(results) == 3
        assert all(r.latency_us > 0 for r in results)

    def test_push_concurrency_waves(self):
        """More pushes than stream workers apply in waves."""
        bed = make_testbed(n_hosts=6, cores_per_host=4)
        controller = AgentController(
            bed.cluster.control_host, max_concurrent_pushes=2
        )
        assignments = [
            (agent, make_stress_program(1300, seed=i + 1), "ingress")
            for i, agent in enumerate(bed.agents)
        ]
        results = bed.sim.run_process(controller.push_many(assignments))
        applied = sorted(r.applied_us for r in results)
        spread = applied[-1] - applied[0]
        single = applied[0] - results[0].issued_us
        assert spread > single  # waves, not one synchronized apply


class TestRollout:
    def _plan(self, app, family="wasm", per_service_insns=300):
        if family == "wasm":
            programs = {
                svc: [make_header_filter(version=2, padding=30)]
                for svc in app.services()
            }
        else:
            programs = {
                svc: [make_stress_program(per_service_insns, seed=i + 1)]
                for i, svc in enumerate(app.services())
            }
        return RolloutPlan(
            services=app.agents_by_service(),
            programs=programs,
            dependencies=app.dependency_map(),
            hook_name="filter0",
        )

    def test_eventual_has_window(self):
        sim = Simulator()
        app = MicroserviceApp(sim, AppSpec(n_services=6))
        controller_host = Host(sim, "ctl", cores=8, dram_bytes=1 << 22)
        app.fabric.attach(controller_host)
        controller = AgentController(controller_host, max_concurrent_pushes=2)
        result = sim.run_process(rollout_eventual(controller, self._plan(app)))
        assert result.inconsistency_window_us > 0
        assert result.update_interval_us >= result.inconsistency_window_us
        assert len(result.applied_us) == 6

    def test_planned_is_violation_free(self):
        sim = Simulator()
        app = MicroserviceApp(sim, AppSpec(n_services=6))
        controller_host = Host(sim, "ctl", cores=8, dram_bytes=1 << 22)
        app.fabric.attach(controller_host)
        controller = AgentController(controller_host)
        plan = self._plan(app)
        result = sim.run_process(rollout_planned(controller, plan))
        assert result.violations(plan) == []

    def test_planned_slower_than_eventual(self):
        def run(mode):
            sim = Simulator()
            app = MicroserviceApp(sim, AppSpec(n_services=6))
            controller_host = Host(sim, "ctl", cores=8, dram_bytes=1 << 22)
            app.fabric.attach(controller_host)
            controller = AgentController(controller_host)
            plan = self._plan(app)
            runner = rollout_planned if mode == "planned" else rollout_eventual
            return sim.run_process(runner(controller, plan)).update_interval_us

        assert run("planned") > run("eventual")

    def test_dependency_order_callees_first(self):
        sim = Simulator()
        app = MicroserviceApp(sim, AppSpec(n_services=6))
        plan = self._plan(app)
        order = plan.dependency_order()
        position = {svc: i for i, svc in enumerate(order)}
        for caller, callees in plan.dependencies.items():
            for callee in callees:
                assert position[callee] < position[caller]

    def test_cycle_rejected(self):
        sim = Simulator()
        app = MicroserviceApp(sim, AppSpec(n_services=2))
        with pytest.raises(ConsistencyError):
            RolloutPlan(
                services=app.agents_by_service(),
                programs={},
                dependencies={"svc0": ["svc1"], "svc1": ["svc0"]},
            )

    def test_missing_agent_rejected(self):
        sim = Simulator()
        app = MicroserviceApp(sim, AppSpec(n_services=2))
        with pytest.raises(ConsistencyError):
            RolloutPlan(
                services=app.agents_by_service(),
                programs={"ghost": []},
                dependencies={},
            )

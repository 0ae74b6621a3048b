"""Tests for causal deploy-trace reconstruction (spans + trace events)."""

from dataclasses import replace

import pytest

from repro.core.broadcast import CodeFlowGroup
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed
from repro.obs.spans import reconstruct_deploy_traces
from repro.params import DEFAULT

#: What this file is about: trace events (the obs plane on) of the
#: pipelined wire protocol, under the default label aggregation.
ARM = dict(pipelined_deploy=True, obs=True, obs_target_labels=False)
pytestmark = pytest.mark.arm(**ARM)

#: PR-4 pipelined fast-path anchors (BENCH_deploy_pipeline.json): a
#: fully-warm single-target deploy and the 8-target bubble window.
WARM_DEPLOY_ANCHOR_US = 14.1
BUBBLE_WINDOW_ANCHOR_US = 28.6
#: Sim-time tolerance around the anchors (deterministic sim, but the
#: obs plane itself and unrelated PRs legitimately move these a bit).
TOLERANCE = 0.40


def _programs(n, version):
    return [
        make_stress_program(400, seed=version * 31 + i, name=f"prog{i}")
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def broadcast_bed():
    """An 8-target bed after a cold then a fully-warm broadcast."""
    bed = make_testbed(
        n_hosts=8, cores_per_host=8, config=replace(DEFAULT, **ARM)
    )
    group = CodeFlowGroup(bed.codeflows)
    for codeflow in bed.codeflows:
        codeflow.tenant = "team-a"
    programs = _programs(8, 1)
    bed.sim.run_process(group.broadcast(programs, "ingress", tenant="team-a"))
    warm = bed.sim.run_process(
        group.broadcast(programs, "ingress", tenant="team-a")
    )
    # Data-path traffic after the rollout: closes the first-exec edge.
    for sandbox in bed.sandboxes:
        sandbox.run_hook("ingress", b"\x00" * 256)
    return bed, warm


class TestBroadcastTrace:
    def test_one_trace_per_root_with_all_legs(self, broadcast_bed):
        bed, _warm = broadcast_bed
        traces = [
            t
            for t in reconstruct_deploy_traces(bed.obs.tracer, bed.obs.recorder)
            if t.root.name == "rdx.broadcast"
        ]
        assert len(traces) == 2  # cold + warm
        for trace in traces:
            assert len(trace.targets) == 8
            assert sorted(leg.target for leg in trace.targets) == sorted(
                sandbox.name for sandbox in bed.sandboxes
            )

    def test_warm_trace_matches_pr4_anchors(self, broadcast_bed):
        """The reconstructed numbers are the benchmark's numbers."""
        bed, warm = broadcast_bed
        trace = reconstruct_deploy_traces(bed.obs.tracer, bed.obs.recorder)[-1]
        assert trace.bubble_window_us == pytest.approx(warm.bubble_window_us)
        assert trace.bubble_window_us == pytest.approx(
            BUBBLE_WINDOW_ANCHOR_US, rel=TOLERANCE
        )
        assert trace.total_us == pytest.approx(warm.total_us, abs=1e-6)
        for leg in trace.targets:
            # Every target became install-visible within the broadcast.
            assert 0 < leg.install_visible_us <= warm.total_us + 1e-6

    def test_first_exec_edge_joins_sandbox_side(self, broadcast_bed):
        bed, _warm = broadcast_bed
        trace = reconstruct_deploy_traces(bed.obs.tracer, bed.obs.recorder)[-1]
        for leg in trace.targets:
            assert leg.first_exec_us is not None
            # Causality: nothing executes before it is install-visible.
            assert leg.first_exec_us >= leg.install_visible_us

    def test_trace_events_cover_the_wire_protocol(self, broadcast_bed):
        bed, _warm = broadcast_bed
        trace = reconstruct_deploy_traces(bed.obs.tracer, bed.obs.recorder)[-1]
        kinds = {event.category for event in trace.events}
        assert {
            "rdx.trace.chain", "rdx.trace.cas", "rdx.trace.flush"
        } <= kinds
        # 8 targets: at least one commit CAS and one cc flush each.
        cas = [e for e in trace.events if e.category == "rdx.trace.cas"]
        flushes = [e for e in trace.events if e.category == "rdx.trace.flush"]
        assert len({e.data["target"] for e in cas}) == 8
        assert len({e.data["target"] for e in flushes}) == 8
        for event in trace.events:
            assert event.data["trace_id"] == trace.trace_id

    def test_tenant_label_rides_trace_and_registry(self, broadcast_bed):
        bed, _warm = broadcast_bed
        trace = reconstruct_deploy_traces(bed.obs.tracer, bed.obs.recorder)[-1]
        assert trace.tenant == "team-a"
        rows = [
            row
            for row in bed.obs.registry.snapshot()
            if row["name"] == "rdx.tenant.install_visible_us"
        ]
        assert rows and all(
            row["labels"] == {"tenant": "team-a"} for row in rows
        )
        # With the default cardinality cap, per-target deploy series
        # aggregate to one label per (unsharded) control plane.
        per_target = {
            row["labels"]["target"]
            for row in bed.obs.registry.snapshot()
            if row["name"] == "rdx.deploy.install_visible_us"
        }
        assert per_target == {"_all"}

    @pytest.mark.arm(obs_target_labels=True)
    def test_target_labels_opt_in_restores_per_target_series(self, config):
        bed = make_testbed(n_hosts=4, cores_per_host=8, config=config)
        group = CodeFlowGroup(bed.codeflows)
        bed.sim.run_process(group.broadcast(_programs(4, 7), "ingress"))
        per_target = {
            row["labels"]["target"]
            for row in bed.obs.registry.snapshot()
            if row["name"] == "rdx.deploy.install_visible_us"
        }
        assert per_target == {sandbox.name for sandbox in bed.sandboxes}


class TestInjectTrace:
    def test_warm_inject_reconstructs_and_matches_anchor(self, testbed):
        program = make_stress_program(400, seed=99)
        testbed.sim.run_process(
            testbed.control.inject(testbed.codeflow, program, "ingress")
        )
        report = testbed.sim.run_process(
            testbed.control.inject(testbed.codeflow, program, "ingress")
        )
        assert report.total_us == pytest.approx(
            WARM_DEPLOY_ANCHOR_US, rel=TOLERANCE
        )
        traces = [
            t
            for t in reconstruct_deploy_traces(
                testbed.obs.tracer, testbed.obs.recorder
            )
            if t.root.name == "rdx.inject"
        ]
        assert len(traces) == 2
        warm = traces[-1]
        assert len(warm.targets) == 1
        leg = warm.targets[0]
        assert leg.target == testbed.sandbox.name
        assert 0 < leg.install_visible_us <= warm.total_us + 1e-6

    def test_code_addr_recorded_on_deploy_span(self, testbed):
        program = make_stress_program(300, seed=5)
        report = testbed.sim.run_process(
            testbed.control.inject(testbed.codeflow, program, "ingress")
        )
        spans = testbed.obs.tracer.by_name("rdx.deploy")
        assert spans[-1].attrs["code_addr"] == report.code_addr != 0

    def test_trace_ids_isolate_concurrent_deploys(self, testbed2):
        programs = [make_stress_program(300, seed=i) for i in (1, 2)]
        procs = [
            testbed2.sim.spawn(
                testbed2.control.inject(cf, prog, "ingress"),
                name=f"inj{i}",
            )
            for i, (cf, prog) in enumerate(zip(testbed2.codeflows, programs))
        ]
        testbed2.sim.run()
        assert all(p.triggered for p in procs)
        traces = [
            t
            for t in reconstruct_deploy_traces(
                testbed2.obs.tracer, testbed2.obs.recorder
            )
            if t.root.name == "rdx.inject"
        ]
        assert len(traces) == 2
        assert traces[0].trace_id != traces[1].trace_id
        for trace in traces:
            assert len(trace.targets) == 1
            for event in trace.events:
                assert event.data["target"] == trace.targets[0].target

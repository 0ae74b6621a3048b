"""Tests for the declarative orchestration language (§7 item 1)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.orchestrator import (
    ExtensionSpec,
    Fleet,
    OrchestrationIntent,
    Plan,
    Selector,
    Strategy,
    execute_plan,
    plan_intent,
)
from repro.ebpf.stress import make_stress_program
from repro.errors import ConsistencyError, DeployError
from repro.exp.harness import make_testbed


@pytest.fixture
def fleet_bed():
    bed = make_testbed(n_hosts=3, cores_per_host=4)
    fleet = Fleet(
        codeflows={
            flow.sandbox.host.name: flow for flow in bed.codeflows
        },
        labels={
            "node0": {"tier": "web"},
            "node1": {"tier": "web"},
            "node2": {"tier": "db"},
        },
    )
    return bed, fleet


def spec(name, seed, targets=Selector(), after=(), hook="ingress"):
    return ExtensionSpec(
        name=name,
        program=make_stress_program(100, seed=seed, name=name),
        hook=hook,
        targets=targets,
        after=after,
    )


def test_deploy_stack_starts_without_the_graph_library():
    """``networkx`` orders intents, rollouts and app DAGs; nothing a
    deploy or a serving tier runs builds a graph, so importing those
    must not pay for it (it was most of a process's start-up)."""
    source = str(Path(repro.__file__).parent.parent)
    check = (
        "import sys; import repro.exp.harness, repro.serve; "
        "sys.exit('networkx' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": source}
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


class TestSelector:
    def test_empty_matches_all(self):
        assert Selector().matches("anything", {})

    def test_name_selection(self):
        selector = Selector(names=("a", "b"))
        assert selector.matches("a", {})
        assert not selector.matches("c", {})

    def test_label_selection(self):
        selector = Selector(labels={"tier": "web"})
        assert selector.matches("x", {"tier": "web", "az": "1"})
        assert not selector.matches("x", {"tier": "db"})

    def test_combined(self):
        selector = Selector(names=("a",), labels={"tier": "web"})
        assert selector.matches("a", {"tier": "web"})
        assert not selector.matches("a", {"tier": "db"})


class TestPlanner:
    def test_plan_resolves_targets(self, fleet_bed):
        _bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[spec("web_ext", 1, Selector(labels={"tier": "web"}))],
        )
        plan = plan_intent(intent, fleet)
        assert plan.steps[0].targets == ["node0", "node1"]

    def test_dependency_ordering(self, fleet_bed):
        _bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[
                spec("caller", 1, after=("callee",)),
                spec("callee", 2, hook="egress"),
            ],
        )
        plan = plan_intent(intent, fleet)
        assert [s.extension.name for s in plan.steps] == ["callee", "caller"]

    def test_cycle_rejected(self, fleet_bed):
        _bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[
                spec("a", 1, after=("b",)),
                spec("b", 2, after=("a",), hook="egress"),
            ],
        )
        with pytest.raises(ConsistencyError, match="cycle"):
            plan_intent(intent, fleet)

    def test_unknown_dependency(self, fleet_bed):
        _bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i", extensions=[spec("a", 1, after=("ghost",))]
        )
        with pytest.raises(ConsistencyError, match="unknown"):
            plan_intent(intent, fleet)

    def test_duplicate_names_rejected(self, fleet_bed):
        _bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i", extensions=[spec("a", 1), spec("a", 2)]
        )
        with pytest.raises(ConsistencyError, match="duplicate"):
            plan_intent(intent, fleet)

    def test_empty_selection_rejected(self, fleet_bed):
        _bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[spec("a", 1, Selector(labels={"tier": "gpu"}))],
        )
        with pytest.raises(DeployError, match="no targets"):
            plan_intent(intent, fleet)

    def test_summary_lists_waves(self, fleet_bed):
        _bed, fleet = fleet_bed
        intent = OrchestrationIntent(name="demo", extensions=[spec("a", 1)])
        plan = plan_intent(intent, fleet)
        text = plan.summary()
        assert "demo" in text and "wave 0" in text

    def test_unknown_strategy(self):
        with pytest.raises(ConsistencyError):
            Strategy(kind="yolo")


class TestExecutor:
    def test_bbu_execution_deploys_everywhere(self, fleet_bed):
        bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[spec("web_ext", 1, Selector(labels={"tier": "web"}))],
        )
        plan = plan_intent(intent, fleet)
        outcome = bed.sim.run_process(
            execute_plan(bed.control, fleet, plan)
        )
        assert len(outcome.waves) == 1
        assert outcome.waves[0].window_us > 0
        for name in ("node0", "node1"):
            sandbox = fleet.codeflows[name].sandbox
            result, _ = sandbox.run_hook("ingress", bytes(256))
            assert result is not None
        db_sandbox = fleet.codeflows["node2"].sandbox
        result, _ = db_sandbox.run_hook("ingress", bytes(256))
        assert result is None  # selector excluded the db tier

    def test_multi_wave_order(self, fleet_bed):
        bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[
                spec("second", 1, after=("first",)),
                spec("first", 2, hook="egress"),
            ],
        )
        plan = plan_intent(intent, fleet)
        outcome = bed.sim.run_process(execute_plan(bed.control, fleet, plan))
        assert [w.extension for w in outcome.waves] == ["first", "second"]

    def test_canary_promotes_on_health(self, fleet_bed):
        bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[spec("ext", 1)],
            strategy=Strategy(kind="canary", canary_count=1),
        )
        plan = plan_intent(intent, fleet)
        outcome = bed.sim.run_process(execute_plan(bed.control, fleet, plan))
        assert outcome.waves[0].canary_passed is True
        for flow in fleet.codeflows.values():
            result, _ = flow.sandbox.run_hook("ingress", bytes(256))
            assert result is not None

    def test_canary_halts_on_failure(self, fleet_bed):
        bed, fleet = fleet_bed
        intent = OrchestrationIntent(
            name="i",
            extensions=[spec("ext", 1)],
            strategy=Strategy(kind="canary", canary_count=1),
        )
        plan = plan_intent(intent, fleet)
        outcome = bed.sim.run_process(
            execute_plan(
                bed.control, fleet, plan, health_check=lambda flow: False
            )
        )
        assert outcome.waves[0].canary_passed is False
        # Only the canary got the extension.
        deployed = sum(
            1
            for flow in fleet.codeflows.values()
            if flow.sandbox.run_hook("ingress", bytes(256))[0] is not None
        )
        assert deployed == 1

"""Declarative cluster-wide extension orchestration (paper §7, item 1).

The paper's first open direction asks for "a declarative language for
cluster-wide extension orchestration".  This module provides one: an
*intent* document names extensions, their target selectors, ordering
constraints, and a rollout strategy; the planner compiles it against
the current fleet into an executable plan of CodeFlow operations; the
executor runs the plan (transactional broadcast or staged canary).

Example intent::

    intent = OrchestrationIntent(
        name="rollout-telemetry-v2",
        extensions=[
            ExtensionSpec(name="telemetry", program=module,
                          hook="filter0", targets=Selector(labels={"tier": "web"})),
            ExtensionSpec(name="rl", program=rl_module, hook="filter1",
                          targets=Selector(names=("svc0",)),
                          after=("telemetry",)),
        ],
        strategy=Strategy(kind="bbu"),
    )
    plan = plan_intent(intent, fleet)
    outcome = sim.run_process(execute_plan(control, plan))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from repro.errors import ConsistencyError, DeployError
from repro.core.broadcast import CodeFlowGroup
from repro.core.codeflow import CodeFlow
from repro.core.control_plane import RdxControlPlane


@dataclass(frozen=True)
class Selector:
    """Which targets an extension applies to.

    Empty selector = every registered target.  ``names`` selects
    exactly; ``labels`` must all match the target's label set.
    """

    names: tuple[str, ...] = ()
    labels: dict = field(default_factory=dict, hash=False)

    def matches(self, name: str, labels: dict) -> bool:
        if self.names and name not in self.names:
            return False
        for key, value in self.labels.items():
            if labels.get(key) != value:
                return False
        return True


@dataclass
class ExtensionSpec:
    """One extension in an intent."""

    name: str
    program: object  # BpfProgram | WasmModule
    hook: str
    targets: Selector = field(default_factory=Selector)
    #: Names of extensions that must be live before this one rolls out.
    after: tuple[str, ...] = ()


@dataclass
class Strategy:
    """How to roll out.

    * ``bbu`` -- one transactional broadcast per extension wave,
      buffered by Big Bubble Update (the default);
    * ``canary`` -- deploy to ``canary_count`` targets first, then,
      if the health check passes, to the rest.
    """

    kind: str = "bbu"
    canary_count: int = 1

    def __post_init__(self):
        if self.kind not in ("bbu", "canary"):
            raise ConsistencyError(f"unknown strategy {self.kind!r}")


@dataclass
class OrchestrationIntent:
    """The declarative document."""

    name: str
    extensions: list[ExtensionSpec]
    strategy: Strategy = field(default_factory=Strategy)


@dataclass
class Fleet:
    """The live targets the planner resolves selectors against."""

    codeflows: dict[str, CodeFlow]
    labels: dict[str, dict] = field(default_factory=dict)

    def select(self, selector: Selector) -> list[str]:
        return sorted(
            name
            for name in self.codeflows
            if selector.matches(name, self.labels.get(name, {}))
        )


@dataclass
class PlanStep:
    """One wave: deploy ``extension`` to ``targets`` atomically."""

    extension: ExtensionSpec
    targets: list[str]


@dataclass
class Plan:
    intent_name: str
    strategy: Strategy
    steps: list[PlanStep]

    def summary(self) -> str:
        lines = [f"plan {self.intent_name!r} ({self.strategy.kind})"]
        for index, step in enumerate(self.steps):
            lines.append(
                f"  wave {index}: {step.extension.name} -> "
                f"{', '.join(step.targets)} @ {step.extension.hook}"
            )
        return "\n".join(lines)


@dataclass
class WaveOutcome:
    extension: str
    targets: list[str]
    window_us: float
    canary_passed: Optional[bool] = None


@dataclass
class PlanOutcome:
    intent_name: str
    waves: list[WaveOutcome] = field(default_factory=list)


def plan_intent(intent: OrchestrationIntent, fleet: Fleet) -> Plan:
    """Compile an intent against the fleet into ordered waves.

    Ordering comes from each extension's ``after`` constraints
    (topological); unknown references and cycles are rejected at plan
    time, never mid-rollout.
    """
    # Imported where a graph is built: no deploy path reaches here, and
    # the import is most of a process's start-up time.
    import networkx as nx

    by_name = {spec.name: spec for spec in intent.extensions}
    if len(by_name) != len(intent.extensions):
        raise ConsistencyError("duplicate extension names in intent")
    graph = nx.DiGraph()
    graph.add_nodes_from(by_name)
    for spec in intent.extensions:
        for dependency in spec.after:
            if dependency not in by_name:
                raise ConsistencyError(
                    f"{spec.name!r} depends on unknown {dependency!r}"
                )
            graph.add_edge(dependency, spec.name)
    if not nx.is_directed_acyclic_graph(graph):
        raise ConsistencyError("intent dependencies contain a cycle")

    steps = []
    for name in nx.topological_sort(graph):
        spec = by_name[name]
        targets = fleet.select(spec.targets)
        if not targets:
            raise DeployError(
                f"extension {name!r}: selector matches no targets"
            )
        steps.append(PlanStep(extension=spec, targets=targets))
    return Plan(intent_name=intent.name, strategy=intent.strategy, steps=steps)


def execute_plan(
    control: RdxControlPlane,
    fleet: Fleet,
    plan: Plan,
    health_check=None,
) -> Generator:
    """Run the plan; returns a :class:`PlanOutcome`.

    ``health_check(codeflow) -> bool`` gates canary promotion; the
    default accepts when the canary sandbox has not crashed.
    """
    outcome = PlanOutcome(intent_name=plan.intent_name)
    obs = control.obs
    with obs.span(
        "rdx.orchestrate", intent=plan.intent_name,
        strategy=plan.strategy.kind, waves=len(plan.steps),
    ) as plan_span:
        for step in plan.steps:
            flows = [fleet.codeflows[name] for name in step.targets]
            with obs.span(
                "rdx.orchestrate.wave", parent=plan_span,
                extension=step.extension.name, targets=len(flows),
            ):
                if (
                    plan.strategy.kind == "canary"
                    and len(flows) > plan.strategy.canary_count
                ):
                    wave = yield from _canary_wave(
                        control, step, flows, plan.strategy, health_check
                    )
                else:
                    wave = yield from _bbu_wave(control, step, flows)
            obs.counter("rdx.orchestrate.waves").inc()
            obs.histogram("rdx.orchestrate.wave.window_us").observe(
                wave.window_us
            )
            if wave.canary_passed is not None:
                obs.counter(
                    "rdx.orchestrate.canary",
                    outcome="passed" if wave.canary_passed else "failed",
                ).inc()
            outcome.waves.append(wave)
    return outcome


def _bbu_wave(control, step: PlanStep, flows: Sequence[CodeFlow]) -> Generator:
    group = CodeFlowGroup(flows)
    result = yield from group.broadcast(
        [step.extension.program] * len(flows), step.extension.hook
    )
    return WaveOutcome(
        extension=step.extension.name,
        targets=list(step.targets),
        window_us=result.bubble_window_us,
    )


def _canary_wave(
    control, step: PlanStep, flows: Sequence[CodeFlow], strategy: Strategy,
    health_check,
) -> Generator:
    check = health_check or (lambda flow: not flow.sandbox.crashed)
    canaries = flows[: strategy.canary_count]
    rest = flows[strategy.canary_count :]
    for flow in canaries:
        yield from control.inject(flow, step.extension.program, step.extension.hook)
    if not all(check(flow) for flow in canaries):
        return WaveOutcome(
            extension=step.extension.name,
            targets=[flow.sandbox.name for flow in canaries],
            window_us=0.0,
            canary_passed=False,
        )
    group = CodeFlowGroup(rest) if rest else None
    window = 0.0
    if group is not None:
        result = yield from group.broadcast(
            [step.extension.program] * len(rest), step.extension.hook
        )
        window = result.bubble_window_us
    return WaveOutcome(
        extension=step.extension.name,
        targets=list(step.targets),
        window_us=window,
        canary_passed=True,
    )

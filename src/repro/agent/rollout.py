"""Cluster-wide rollouts over microservice dependency DAGs (§2.2 Obs 2).

An application update touches a set of interdependent services whose
extensions form a DAG (callers depend on callees).  The agent baseline
offers eventual consistency: every agent applies when its CPU allows,
so between the first and last apply the data path runs *mixed* logic.
The inconsistency window measured here feeds Fig 2b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator

from repro.errors import ConsistencyError
from repro.ebpf.program import BpfProgram
from repro.agent.controller import AgentController
from repro.agent.daemon import NodeAgent

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class RolloutPlan:
    """What to update: one (agent, programs) entry per service.

    ``dependencies`` maps a service to the services it calls; the
    rollout is safe only if a callee runs new logic before its callers
    (which eventual consistency cannot guarantee).
    """

    services: dict[str, NodeAgent]
    programs: dict[str, list[BpfProgram]]
    dependencies: dict[str, list[str]] = field(default_factory=dict)
    hook_name: str = "ingress"

    def __post_init__(self):
        import networkx as nx

        graph = self.graph()
        if not nx.is_directed_acyclic_graph(graph):
            raise ConsistencyError("service dependencies contain a cycle")
        for service in self.programs:
            if service not in self.services:
                raise ConsistencyError(f"no agent for service {service!r}")

    def graph(self) -> nx.DiGraph:
        # Imported where a graph is built: no deploy path reaches here,
        # and the import is most of a process's start-up time.
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(self.services)
        for caller, callees in self.dependencies.items():
            for callee in callees:
                graph.add_edge(caller, callee)
        return graph

    def dependency_order(self) -> list[str]:
        """Callees before callers (safe application order)."""
        import networkx as nx

        return list(reversed(list(nx.topological_sort(self.graph()))))


@dataclass
class RolloutResult:
    """Timing of one rollout."""

    initiated_us: float
    applied_us: dict[str, float]
    mode: str

    @property
    def first_applied_us(self) -> float:
        return min(self.applied_us.values())

    @property
    def last_applied_us(self) -> float:
        return max(self.applied_us.values())

    @property
    def inconsistency_window_us(self) -> float:
        """First service on new logic -> last service on new logic."""
        return self.last_applied_us - self.first_applied_us

    @property
    def update_interval_us(self) -> float:
        """Initiation -> completion (the paper's §2.2 definition)."""
        return self.last_applied_us - self.initiated_us

    def violations(self, plan: RolloutPlan) -> list[tuple[str, str]]:
        """(caller, callee) pairs where the caller updated first.

        Each such pair is a window where new-caller -> old-callee calls
        could fail (§2.2's service-A/B example).
        """
        out = []
        for caller, callees in plan.dependencies.items():
            for callee in callees:
                if self.applied_us[caller] < self.applied_us[callee]:
                    out.append((caller, callee))
        return out


def rollout_eventual(
    controller: AgentController, plan: RolloutPlan
) -> Generator:
    """Push everything at once; agents apply as CPU allows (baseline)."""
    initiated = controller.sim.now
    procs = {}
    for service, agent in plan.services.items():
        procs[service] = controller.sim.spawn(
            _apply_service(controller, plan, service, agent),
            name=f"rollout:{service}",
        )
    yield controller.sim.all_of(list(procs.values()))
    applied = {service: proc.value for service, proc in procs.items()}
    return RolloutResult(initiated_us=initiated, applied_us=applied, mode="eventual")


def rollout_planned(
    controller: AgentController, plan: RolloutPlan
) -> Generator:
    """Manual-planning baseline: apply in dependency order, serially.

    Safe (no violations) but the update interval grows with DAG depth
    -- the "error-prone manual planning" §2.2 describes, automated.
    """
    initiated = controller.sim.now
    applied: dict[str, float] = {}
    for service in plan.dependency_order():
        agent = plan.services[service]
        applied[service] = yield from _apply_service(
            controller, plan, service, agent
        )
    return RolloutResult(initiated_us=initiated, applied_us=applied, mode="planned")


def _apply_service(
    controller: AgentController,
    plan: RolloutPlan,
    service: str,
    agent: NodeAgent,
) -> Generator:
    """Apply every program of one service; returns the apply-done time."""
    for program in plan.programs.get(service, []):
        yield from controller.push(agent, program, plan.hook_name)
    return controller.sim.now

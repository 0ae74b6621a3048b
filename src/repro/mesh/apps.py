"""Microservice applications over the mesh (paper Fig 2b's four apps).

The paper evaluates inconsistency on four applications with 4, 11, 17,
and 33 microservices.  :func:`make_app_dag` builds deterministic
call DAGs of those sizes (a layered fan-out shaped like the Alibaba
trace analysis the paper cites: shallow-but-wide with a single entry).
Each service gets a host, a sidecar proxy, and optionally a per-pod
agent (the baseline) -- RDX replaces the agents with CodeFlows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.agent.daemon import NodeAgent
from repro.errors import WorkloadError
from repro.mesh.proxy import SidecarProxy
from repro.net.fabric import Fabric
from repro.net.topology import Host
from repro.sim.core import Simulator

if TYPE_CHECKING:
    import networkx as nx

#: (label, n_services) for the paper's four applications.
PAPER_APPS = (("app1", 4), ("app2", 11), ("app3", 17), ("app4", 33))


def make_app_dag(n_services: int, fanout: int = 3) -> nx.DiGraph:
    """A deterministic layered call DAG with one entry service.

    ``svc0`` is the front-end; each service calls up to ``fanout``
    services in the next layer.  Shapes match the microservice-depth
    characteristics the paper's Fig 2b spans.
    """
    # Imported where a graph is built: no deploy path reaches here, and
    # the import is most of a process's start-up time.
    import networkx as nx

    if n_services < 1:
        raise WorkloadError("need at least one service")
    graph = nx.DiGraph()
    names = [f"svc{i}" for i in range(n_services)]
    graph.add_nodes_from(names)
    frontier = [0]
    next_child = 1
    while next_child < n_services:
        new_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                if next_child >= n_services:
                    break
                graph.add_edge(names[parent], names[next_child])
                new_frontier.append(next_child)
                next_child += 1
        if not new_frontier:
            break
        frontier = new_frontier
    return graph


@dataclass
class AppSpec:
    """Configuration for building a :class:`MicroserviceApp`."""

    n_services: int
    cores_per_host: int = 4
    dram_bytes: int = 32 * 2**20
    n_filter_slots: int = 2
    with_agents: bool = True
    cpki: float = 5.0
    fanout: int = 3


@dataclass
class ServicePod:
    """One deployed service: host + sidecar (+ agent in baseline mode)."""

    name: str
    host: Host
    proxy: SidecarProxy
    agent: Optional[NodeAgent] = None


class MicroserviceApp:
    """A running application: pods wired along a call DAG."""

    def __init__(self, sim: Simulator, spec: AppSpec, fabric: Optional[Fabric] = None):
        self.sim = sim
        self.spec = spec
        self.dag = make_app_dag(spec.n_services, fanout=spec.fanout)
        self.fabric = fabric or Fabric(sim)
        self.pods: dict[str, ServicePod] = {}
        for index, service in enumerate(sorted(self.dag.nodes)):
            host = Host(
                sim,
                f"{service}.host",
                cores=spec.cores_per_host,
                dram_bytes=spec.dram_bytes,
                cpki=spec.cpki,
                seed=index + 1,
            )
            self.fabric.attach(host)
            proxy = SidecarProxy(
                host, name=f"{service}.sidecar",
                n_filter_slots=spec.n_filter_slots,
            )
            agent = None
            if spec.with_agents:
                agent = NodeAgent(host, proxy.sandbox, service=f"agent:{service}")
            self.pods[service] = ServicePod(
                name=service, host=host, proxy=proxy, agent=agent
            )

    @property
    def entry(self) -> str:
        return "svc0"

    def services(self) -> list[str]:
        return sorted(self.pods)

    def callees_of(self, service: str) -> list[str]:
        return sorted(self.dag.successors(service))

    def call_path(self, path_hash: int) -> list[str]:
        """The service chain one request traverses (deterministic).

        From the entry service, each hop picks one callee by path
        hash -- a request touches depth-many services, so mixed filter
        versions along the path are observable.
        """
        path = [self.entry]
        current = self.entry
        cursor = path_hash
        while True:
            callees = self.callees_of(current)
            if not callees:
                return path
            current = callees[cursor % len(callees)]
            cursor //= max(2, len(callees))
            path.append(current)

    def agents_by_service(self) -> dict[str, NodeAgent]:
        out = {}
        for service, pod in self.pods.items():
            if pod.agent is None:
                raise WorkloadError(f"{service} has no agent (agentless app)")
            out[service] = pod.agent
        return out

    def dependency_map(self) -> dict[str, list[str]]:
        """caller -> callees, for rollout planning."""
        return {
            service: self.callees_of(service) for service in self.services()
        }

"""The central controller of the agent baseline (Kubernetes-style).

Pushes extension specs to node agents over RPC with config batching
(debounce), then waits for each agent's local pipeline.  Offers only
eventual consistency: nodes apply whenever their agent gets CPU, so a
multi-node update exposes a mixed-logic window (§2.2 Obs 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro import params
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.net.rpc import RpcEndpoint
from repro.net.topology import Host
from repro.sim.resources import Resource
from repro.sim.trace import TraceRecorder
from repro.agent.daemon import NodeAgent


@dataclass
class PushResult:
    """Outcome of pushing one extension to one node."""

    node: str
    program_name: str
    issued_us: float
    applied_us: float

    @property
    def latency_us(self) -> float:
        return self.applied_us - self.issued_us


class AgentController:
    """Central config pusher for a fleet of node agents.

    ``max_concurrent_pushes`` models the management server's limited
    stream workers (an XDS pilot pushes config over a bounded worker
    pool): with more services than workers, rollouts apply in waves,
    which is where the Fig 2b inconsistency spread comes from.
    """

    def __init__(
        self,
        host: Host,
        trace: Optional[TraceRecorder] = None,
        max_concurrent_pushes: int = 4,
    ):
        self.host = host
        self.sim = host.sim
        self.trace = trace or TraceRecorder(enabled=False)
        self.rpc = RpcEndpoint(host, "controller")
        self.pushes: list[PushResult] = []
        self._push_slots = Resource(host.sim, capacity=max_concurrent_pushes)

    def push(
        self,
        agent: NodeAgent,
        program: BpfProgram,
        hook_name: str,
        maps: Sequence[BpfMap] = (),
        batch_delay_us: float = params.CONTROLLER_BATCH_DELAY_US,
    ) -> Generator:
        """Push one extension to one agent; returns a PushResult."""
        issued = self.sim.now
        if batch_delay_us:
            yield self.sim.timeout(batch_delay_us)
        slot = self._push_slots.request()
        yield slot
        try:
            payload_bytes = 256 + program.size_bytes()
            yield self.rpc.call(
                agent.host,
                agent.service,
                "load",
                args=(program, hook_name, tuple(maps)),
                size_bytes=payload_bytes,
            )
        finally:
            self._push_slots.release(slot)
        result = PushResult(
            node=agent.host.name,
            program_name=program.name,
            issued_us=issued,
            applied_us=self.sim.now,
        )
        self.pushes.append(result)
        self.trace.record(
            self.sim.now,
            "controller.push.done",
            node=result.node,
            program=program.name,
            latency_us=result.latency_us,
        )
        return result

    def push_many(
        self,
        assignments: Sequence[tuple[NodeAgent, BpfProgram, str]],
        maps: Sequence[BpfMap] = (),
        batch_delay_us: float = params.CONTROLLER_BATCH_DELAY_US,
    ) -> Generator:
        """Push to many agents concurrently (eventual consistency).

        One shared batching delay, then all pushes race.  Returns the
        list of PushResults ordered as given.
        """
        if batch_delay_us:
            yield self.sim.timeout(batch_delay_us)
        procs = [
            self.sim.spawn(
                self.push(agent, program, hook, maps, batch_delay_us=0),
                name=f"push:{agent.host.name}",
            )
            for agent, program, hook in assignments
        ]
        results = yield self.sim.all_of(procs)
        return list(results)

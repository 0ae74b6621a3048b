"""Redis agent-tax experiment (paper §6: "up to 25.3%").

Paper claim: agentless eBPF over RDX improves Redis throughput by up
to 25.3% over the agent baseline, because the agent's injection work
and periodic XState polling burn the cores Redis runs on.

Setup: a Redis-like server saturates a small host.  The **agent** run
adds periodic eBPF injections plus map polling on the same host; the
**RDX** run performs the same logical operations from the control
plane (injections one-sided, XState reads via RDMA) -- zero host CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.apps.rediskv import RedisLikeServer
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed

PAPER = {
    "improvement_pct_max": 25.3,
    "claim": "agentless eBPF lifts Redis throughput by up to ~25%",
}


@dataclass
class TabRedisResult:
    agent_ops_s: float
    rdx_ops_s: float

    @property
    def improvement_pct(self) -> float:
        if self.agent_ops_s <= 0:
            return 0.0
        return (self.rdx_ops_s / self.agent_ops_s - 1.0) * 100.0


def run_tab_redis(
    duration_us: float = 300_000.0,
    cores: int = 2,
    n_workers: int = 2,
    inject_interval_us: float = 100_000.0,
    inject_insns: int = 20_000,
    poll_interval_us: float = 3_000.0,
    poll_cost_us: float = 450.0,
) -> TabRedisResult:
    """Measure Redis throughput under agent vs RDX management."""
    agent_ops = _run_one(
        duration_us, cores, n_workers, inject_interval_us, inject_insns,
        poll_interval_us, poll_cost_us, mode="agent",
    )
    rdx_ops = _run_one(
        duration_us, cores, n_workers, inject_interval_us, inject_insns,
        poll_interval_us, poll_cost_us, mode="rdx",
    )
    return TabRedisResult(agent_ops_s=agent_ops, rdx_ops_s=rdx_ops)


def _run_one(
    duration_us: float,
    cores: int,
    n_workers: int,
    inject_interval_us: float,
    inject_insns: int,
    poll_interval_us: float,
    poll_cost_us: float,
    mode: str,
) -> float:
    bed = make_testbed(n_hosts=1, cores_per_host=cores)
    server = RedisLikeServer(bed.host, n_workers=n_workers)
    program = make_stress_program(inject_insns, seed=3, name="redis_ext")

    if mode == "agent":

        def churn() -> Generator:
            while bed.sim.now < duration_us:
                yield bed.sim.timeout(inject_interval_us)
                yield from bed.agent.inject(program, "ingress")

        bed.sim.spawn(churn(), name="agent-churn")
        bed.agent.start_state_polling(
            interval_us=poll_interval_us,
            cost_us=poll_cost_us,
            duration_us=duration_us,
        )
    else:
        # Same management cadence, driven from the control plane.
        def churn() -> Generator:
            while bed.sim.now < duration_us:
                yield bed.sim.timeout(inject_interval_us)
                yield from bed.control.inject(
                    bed.codeflow, program, "ingress", retain_history=False
                )

        def poll() -> Generator:
            # XState introspection via one-sided READs of the hook +
            # metadata region -- no target CPU involved.
            while bed.sim.now < duration_us:
                yield bed.sim.timeout(poll_interval_us)
                yield from bed.codeflow.read_raw(
                    bed.codeflow.manifest.metadata_addr, 256
                )

        bed.sim.spawn(churn(), name="rdx-churn")
        bed.sim.spawn(poll(), name="rdx-poll")

    result = bed.sim.run_process(server.run_load(duration_us))
    return result.throughput_ops_s

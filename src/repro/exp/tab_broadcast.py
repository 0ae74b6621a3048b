"""Collective CodeFlow / BBU experiment (paper §4).

Paper claims: (1) ``rdx_broadcast`` performs microsecond-scale,
transactionally consistent cluster-wide updates; (2) Big Bubble Update
becomes *practical* because the buffer only has to hold
``rate x bubble_window`` requests -- with agent-scale windows (100 ms
at 10M req/s) that is ~1M requests, with RDX windows it is a handful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.api import rdx_broadcast
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed

PAPER = {
    "claim": "atomic cluster-wide rollout in microseconds",
    "agent_example_buffer": 1_000_000,  # 10M req/s x 100 ms (§2.2)
    "rate_example_req_s": 10_000_000,
}


@dataclass
class TabBroadcastRow:
    group_size: int
    bubble_window_us: float
    total_us: float
    #: Requests a 10M req/s app would buffer during the bubble.
    bbu_buffer_requests: float
    #: Same app under a 100 ms agent-style update window (paper §2.2).
    agent_buffer_requests: float = PAPER["agent_example_buffer"]


@dataclass
class TabBroadcastResult:
    rows: list[TabBroadcastRow] = field(default_factory=list)


def run_tab_broadcast(
    group_sizes: Sequence[int] = (2, 4, 8),
    insn_size: int = 1_300,
    rate_req_s: float = 10_000_000.0,
) -> TabBroadcastResult:
    """Broadcast one update to n nodes; report window + buffer need."""
    result = TabBroadcastResult()
    for n in group_sizes:
        bed = make_testbed(n_hosts=n, with_agents=False)
        programs = [
            make_stress_program(insn_size, seed=i + 3, name=f"bcast{i}")
            for i in range(n)
        ]
        # Warm the registry: validate/compile each program once.
        for program, codeflow in zip(programs, bed.codeflows):
            bed.sim.run_process(
                bed.control.artifacts.prepare(program, arch=codeflow.manifest.arch)
            )
        outcome = bed.sim.run_process(
            rdx_broadcast(bed.codeflows, programs, "ingress")
        )
        result.rows.append(
            TabBroadcastRow(
                group_size=n,
                bubble_window_us=outcome.bubble_window_us,
                total_us=outcome.total_us,
                bbu_buffer_requests=rate_req_s * outcome.bubble_window_us / 1e6,
            )
        )
    return result

"""Fig 4a -- eBPF program load overhead, Agent vs RDX.

Paper claim: over BPF-selftest stress programs of 1.3K-95K
instructions, RDX reduces injection completion time by 47x-1982x,
mainly by removing verification + JIT from the injection path (§6).

We deploy each size repeatedly through (a) a node agent and (b) a
CodeFlow with a warm registry ("validate once, deploy anywhere"), and
report mean completion time plus the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.ebpf.stress import STRESS_SIZES, make_stress_program
from repro.exp.harness import Testbed, make_testbed

PAPER = {
    "sizes": STRESS_SIZES,
    "speedup_min": 47.0,
    "speedup_max": 1982.0,
    "claim": "orders-of-magnitude lower injection time across all sizes",
}


@dataclass
class Fig4aPoint:
    insn_size: int
    agent_us: float
    rdx_us: float

    @property
    def speedup(self) -> float:
        return self.agent_us / self.rdx_us if self.rdx_us else 0.0


@dataclass
class Fig4aResult:
    points: list[Fig4aPoint] = field(default_factory=list)

    def speedups(self) -> list[float]:
        return [p.speedup for p in self.points]


def run_fig4a(
    sizes: Sequence[int] = STRESS_SIZES,
    repeats: int = 3,
    testbed: Testbed | None = None,
) -> Fig4aResult:
    """Measure agent vs RDX injection latency across sizes."""
    bed = testbed or make_testbed()
    result = Fig4aResult()
    for size in sizes:
        program = make_stress_program(size, seed=size % 89 + 1)

        agent_times = []
        for _ in range(repeats):
            breakdown = bed.sim.run_process(
                bed.agent.inject(program, "ingress")
            )
            agent_times.append(breakdown.total_us)

        # Warm the registry once (validate-once), then measure the
        # repeat-deploy path the paper's 100K-iteration loop measures.
        # Each measured deploy is detached outside its interval, so
        # the next one injects the whole image again instead of
        # diffing against an identical resident baseline.
        bed.sim.run_process(
            bed.control.inject(
                bed.codeflow, program, "egress", retain_history=False
            )
        )
        rdx_times = []
        for _ in range(repeats):
            report = bed.sim.run_process(
                bed.control.inject(
                    bed.codeflow, program, "egress", retain_history=False
                )
            )
            rdx_times.append(report.total_us)
            bed.sim.run_process(bed.codeflow.detach(program.name))

        result.points.append(
            Fig4aPoint(
                insn_size=size,
                agent_us=sum(agent_times) / len(agent_times),
                rdx_us=sum(rdx_times) / len(rdx_times),
            )
        )
    return result

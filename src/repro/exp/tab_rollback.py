"""Rollback-under-contention experiment (paper §4 + §2.2 "lockout").

Paper claims: agent-path recovery competes with the very CPU
saturation it is trying to relieve (lockout effect); RDX rolls a
faulty extension back in microseconds via a hardware-level pointer
flip, independent of host load.

Setup: the host CPU is saturated with background work.  The agent
rollback must queue behind it; the RDX rollback
(:meth:`~repro.core.codeflow.CodeFlow.rollback`) is the epoch-fence
READ, the hook CAS and the hook line's flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed

PAPER = {
    "claim": "rollback in microseconds even under full CPU load",
    "agent_scale": "ms..s, grows with contention",
}


@dataclass
class TabRollbackResult:
    load_level: float
    agent_rollback_us: float
    rdx_rollback_us: float

    @property
    def speedup(self) -> float:
        if self.rdx_rollback_us <= 0:
            return 0.0
        return self.agent_rollback_us / self.rdx_rollback_us


def run_tab_rollback(
    busy_fraction: float = 0.95,
    insn_size: int = 11_000,
    cores: int = 4,
) -> TabRollbackResult:
    """Measure both rollback paths under background CPU saturation."""
    bed = make_testbed(n_hosts=1, cores_per_host=cores)
    stable = make_stress_program(insn_size, seed=2, name="ext")
    faulty = make_stress_program(insn_size, seed=9, name="ext")

    # Deploy stable then faulty via RDX so history exists for rollback.
    bed.sim.run_process(bed.control.inject(bed.codeflow, stable, "egress"))
    bed.sim.run_process(bed.control.inject(bed.codeflow, faulty, "egress"))

    # Saturate the host CPU with background tasks for the whole run.
    horizon_us = 5_000_000.0

    def burner(core: int) -> Generator:
        while bed.sim.now < horizon_us:
            yield from bed.host.cpu.run(1_000.0 * busy_fraction)
            yield bed.sim.timeout(1_000.0 * (1.0 - busy_fraction) + 1e-6)

    for core in range(cores * 2):
        bed.sim.spawn(burner(core), name=f"burn{core}")

    # RDX rollback: fence, transactional flip and flush, no host CPU.
    record = bed.sim.run_process(bed.codeflow.rollback("ext"))
    rdx_us = record.duration_us

    # Agent rollback: re-inject the stable program locally, queueing
    # behind the saturated cores.
    mark = bed.sim.now
    breakdown = bed.sim.run_process(bed.agent.inject(stable, "ingress"))
    agent_us = breakdown.total_us
    del mark

    return TabRollbackResult(
        load_level=busy_fraction,
        agent_rollback_us=agent_us,
        rdx_rollback_us=rdx_us,
    )

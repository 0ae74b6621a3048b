"""Fig 5 -- incoherence time: vanilla RDMA vs RDX sync primitives.

Paper claim: after a one-sided injection, the target CPU keeps reading
stale cache lines until workload pressure evicts them -- a median of
up to ~746 us at low CPKI, falling as pressure rises.  RDX's
``rdx_tx`` + ``rdx_cc_event`` flush explicitly, holding the window at
~2 us across all CPKI levels (§3.5, §6).

The experiment plants a polling CPU loop on a hook qword, injects a
new value over RDMA, and measures when the CPU first observes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Sequence

from repro.exp.harness import median
from repro.core.control_plane import RdxControlPlane
from repro.core.api import bootstrap_sandbox, rdx_cc_event, rdx_tx
from repro.mem.layout import unpack_qword
from repro.net.topology import Cluster
from repro.sandbox.sandbox import Sandbox
from repro.sim.core import Simulator

PAPER = {
    "cpki_range": (5, 40),
    "vanilla_max_us": 746.0,
    "rdx_us": 2.0,
    "claim": "orders-of-magnitude lower incoherence across CPKI levels",
}


@dataclass
class Fig5Point:
    cpki: float
    vanilla_median_us: float
    rdx_median_us: float


@dataclass
class Fig5Result:
    points: list[Fig5Point] = field(default_factory=list)

    def series(self, which: str) -> list[tuple[float, float]]:
        if which == "vanilla":
            return [(p.cpki, p.vanilla_median_us) for p in self.points]
        return [(p.cpki, p.rdx_median_us) for p in self.points]


def run_fig5(
    cpki_levels: Sequence[float] = (5, 10, 15, 20, 25, 30, 35, 40),
    trials: int = 31,
    poll_interval_us: float = 0.5,
) -> Fig5Result:
    """Sweep CPKI and measure both modes' median incoherence window."""
    result = Fig5Result()
    for cpki in cpki_levels:
        vanilla = _trials(cpki, trials, poll_interval_us, use_rdx=False)
        rdx = _trials(cpki, trials, poll_interval_us, use_rdx=True)
        result.points.append(
            Fig5Point(
                cpki=cpki,
                vanilla_median_us=median(vanilla),
                rdx_median_us=median(rdx),
            )
        )
    return result


def _trials(
    cpki: float, trials: int, poll_interval_us: float, use_rdx: bool
) -> list[float]:
    sim = Simulator()
    cluster = Cluster(sim, n_hosts=1, cpki=cpki, seed=int(cpki) * 31 + 7)
    target = cluster.hosts[0]
    sandbox = Sandbox(target, hooks=("ingress",))
    bootstrap_sandbox(sandbox)
    control = RdxControlPlane(cluster.control_host)
    codeflow = sim.run_process(control.create_codeflow(sandbox))
    hook_addr = sandbox.hook_table.slot_addr("ingress")
    windows: list[float] = []

    def one_trial(trial: int) -> Generator:
        new_value = 0x1000_0000 + trial
        # Ensure the CPU has the line cached (and therefore stale-able).
        sandbox.hook_table.read_pointer("ingress")

        landed = sim.event()

        def injector() -> Generator:
            if use_rdx:
                yield from rdx_tx(codeflow, b"", hook_addr, hook_addr, new_value)
            else:
                yield from codeflow.sync.write(
                    hook_addr, new_value.to_bytes(8, "little")
                )
            landed.succeed(sim.now)
            if use_rdx:
                yield from rdx_cc_event(codeflow, hook_addr, 8)

        inject_proc = sim.spawn(injector(), name=f"inject{trial}")
        # Poll from the landing instant until the CPU observes the new
        # value: the window is the flush's (or the eviction's), not
        # the poll's phase against how long the injection took.
        landed_us = yield landed
        while unpack_qword(target.cache.cpu_read(hook_addr, 8)) != new_value:
            yield sim.timeout(poll_interval_us)
        yield inject_proc  # ensure the injector finished
        windows.append(sim.now - landed_us)
        # Reset: flush so the next trial starts from a fresh fill.
        target.cache.flush(hook_addr, 8)

    for trial in range(trials):
        sim.run_process(one_trial(trial))
    return windows

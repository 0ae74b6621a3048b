"""Deploy fast-path ablation: pipelined WR chains vs serial ops.

The pipelined path (default, ``config.pipelined_deploy``) posts the
deploy's image + metadata as one chained WR list behind a single
doorbell with selective signaling, commits with a bare CAS
ordered by the chain completion, serves links out of the layout-
fingerprinted image cache, and overlaps broadcast bubble-lowering
flushes.  The serial ablation is the pre-optimization path: one WR,
one doorbell, one blocked completion per op.

Two headline numbers back the claim that the fast path matters:

* warm single-target deploy latency (compile + link caches hot -- the
  steady-state injection the paper's microsecond story rests on), and
* the 8-target broadcast ``bubble_window_us`` -- the §4 consistency
  window during which every data path buffers requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro import params
from repro.core.broadcast import CodeFlowGroup
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed


@dataclass
class ModeResult:
    """Measurements for one ablation arm."""

    pipelined: bool
    deploy_cold_us: float = 0.0
    deploy_warm_us: float = 0.0
    bubble_window_us: float = 0.0
    broadcast_total_us: float = 0.0
    compiles_run: int = 0
    prepare_coalesced: int = 0
    link_cache_hits: int = 0
    link_cache_misses: int = 0
    wrs_per_doorbell_p50: float = 0.0
    sim_time_us: float = 0.0


@dataclass
class DeployPipelineResult:
    insn_size: int
    n_targets: int
    modes: dict[str, ModeResult] = field(default_factory=dict)

    @property
    def deploy_speedup(self) -> Optional[float]:
        """Serial / pipelined warm deploy latency (None unless both ran)."""
        return self._ratio("deploy_warm_us")

    @property
    def window_speedup(self) -> Optional[float]:
        """Serial / pipelined broadcast bubble window (None unless both ran)."""
        return self._ratio("bubble_window_us")

    def _ratio(self, attr: str) -> Optional[float]:
        fast = self.modes.get("pipelined")
        slow = self.modes.get("serial")
        if fast is None or slow is None:
            return None
        denominator = getattr(fast, attr)
        return getattr(slow, attr) / denominator if denominator else None


def run_deploy_pipeline(
    n_targets: int = 8,
    insn_size: int = 1_300,
    modes: Sequence[str] = ("pipelined", "serial"),
) -> DeployPipelineResult:
    """Measure deploy latency + broadcast window for the chosen modes.

    Each mode gets fresh testbeds (clean caches, clean telemetry)
    built on that arm's ``config.pipelined_deploy``.
    """
    result = DeployPipelineResult(insn_size=insn_size, n_targets=n_targets)
    for mode in modes:
        result.modes[mode] = _run_mode(mode == "pipelined", n_targets, insn_size)
    return result


def _run_mode(pipelined: bool, n_targets: int, insn_size: int) -> ModeResult:
    config = replace(params.DEFAULT, pipelined_deploy=pipelined)
    mode = ModeResult(pipelined=pipelined)

    # -- single-target inject: cold (validate + JIT + link) then warm ----
    single = make_testbed(n_hosts=1, with_agents=False, config=config)
    program = make_stress_program(insn_size, seed=7, name="pipeline")
    for attr in ("deploy_cold_us", "deploy_warm_us"):
        started = single.sim.now
        single.sim.run_process(single.control.inject(
            single.codeflow, program, "ingress", retain_history=False
        ))
        setattr(mode, attr, single.sim.now - started)

    # -- single-flight compile: two targets of a fresh plane, one program ----
    pair = make_testbed(n_hosts=2, with_agents=False, config=config)
    for codeflow in pair.codeflows:
        pair.sim.spawn(pair.control.prepare_for(codeflow, program))
    pair.sim.run()
    mode.prepare_coalesced = pair.control.prepare_coalesced

    # -- fleet broadcast: v1 warms every cache, v2 is measured ----
    bed = make_testbed(n_hosts=n_targets, with_agents=False, config=config)
    v1 = make_stress_program(insn_size, seed=11, name="fleet")
    v2 = make_stress_program(insn_size, seed=12, name="fleet")
    group = CodeFlowGroup(bed.codeflows)
    bed.sim.run_process(group.broadcast([v1] * n_targets, "ingress", verify=False))
    outcome = bed.sim.run_process(
        group.broadcast([v2] * n_targets, "ingress", verify=False)
    )
    mode.bubble_window_us = outcome.bubble_window_us
    mode.broadcast_total_us = outcome.total_us
    mode.compiles_run = bed.control.compiles_run
    mode.link_cache_hits = bed.control.link_cache_hits
    mode.link_cache_misses = bed.control.link_cache_misses
    # The RNIC observes every chain it rings, whoever posted it.
    mode.wrs_per_doorbell_p50 = max(
        (series.percentile(50)
         for series in bed.obs.registry.series("rdma.wrs_per_doorbell")),
        default=0.0,
    )
    mode.sim_time_us = bed.sim.now
    return mode

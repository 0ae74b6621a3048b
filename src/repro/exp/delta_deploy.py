"""Delta-deploy ablation: dirty chunks vs the full-image fast path.

The production redeploy shape is a one-instruction edit to a live
extension.  The delta path (``config.delta_deploy``)
diffs the newly linked image against the target's resident baseline at
MTU-chunk granularity and ships only the dirty spans plus the metadata
descriptor, committing with the same CAS as the full path.  The
ablation arm runs the identical version chain with delta disabled, so
the two arms differ only in bytes moved and write-phase latency.

The scenario is the paper's hotpatch story: an ~8 KB program (818
10-byte JIT'd instructions plus header and CRC = exactly two MTU
chunks), deployed three times -- v1 cold, v2 warm (registers v1's
extent as the baseline), v3 a one-instruction variant.  The v3 deploy
is the measured hotpatch: on the delta arm it diffs against the v1
baseline, where the edited instruction and the image CRC share one
dirty chunk, trimmed to a single cache line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro import params
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.exp.harness import make_testbed

#: 818 insns -> 8 + 818*10 + 4 = 8192 image bytes: exactly two MTU
#: chunks, the "8 KB program" of the acceptance criteria.
HOTPATCH_INSNS = 818


@dataclass
class ModeResult:
    """Measurements for one ablation arm."""

    delta: bool
    #: The measured v3 one-instruction hotpatch.
    hotpatch_us: float = 0.0
    hotpatch_bytes: int = 0
    hotpatch_chunks: int = 0
    mode_used: str = ""
    base_version: int = 0
    #: Cold v1 deploy, for context.
    deploy_cold_us: float = 0.0
    delta_deploys: int = 0
    delta_fallbacks: int = 0
    exec_r0: int = 0
    sim_time_us: float = 0.0


@dataclass
class DeltaDeployResult:
    insn_size: int
    image_bytes: int = 0
    modes: dict[str, ModeResult] = field(default_factory=dict)

    @property
    def bytes_ratio(self) -> Optional[float]:
        """Full-arm / delta-arm bytes moved (None unless both ran)."""
        fast = self.modes.get("delta")
        slow = self.modes.get("full")
        if fast is None or slow is None or not fast.hotpatch_bytes:
            return None
        return slow.hotpatch_bytes / fast.hotpatch_bytes

    @property
    def latency_ratio(self) -> Optional[float]:
        """Full-arm / delta-arm hotpatch latency (None unless both ran)."""
        fast = self.modes.get("delta")
        slow = self.modes.get("full")
        if fast is None or slow is None or not fast.hotpatch_us:
            return None
        return slow.hotpatch_us / fast.hotpatch_us


def run_delta_deploy(
    insn_size: int = HOTPATCH_INSNS,
    modes: Sequence[str] = ("delta", "full"),
) -> DeltaDeployResult:
    """Run the hotpatch chain for the chosen arms.

    Each arm gets a fresh testbed (clean caches, clean telemetry)
    built on that arm's ``config.delta_deploy``.
    """
    result = DeltaDeployResult(insn_size=insn_size)
    for mode in modes:
        arm = _run_mode(mode == "delta", insn_size)
        result.modes[mode] = arm
        if not result.image_bytes:
            result.image_bytes = 8 + insn_size * 10 + 4
    return result


def _run_mode(delta: bool, insn_size: int) -> ModeResult:
    mode = ModeResult(delta=delta)
    bed = make_testbed(
        n_hosts=1, with_agents=False,
        config=replace(params.DEFAULT, delta_deploy=delta),
    )
    v1 = make_stress_program(insn_size, seed=7, name="hotpatch")
    v2 = make_stress_variant(v1, 1)
    v3 = make_stress_variant(v1, 2)

    cold = bed.sim.run_process(
        bed.control.inject(bed.codeflow, v1, "ingress", retain_history=False)
    )
    bed.sim.run_process(
        bed.control.inject(bed.codeflow, v2, "ingress", retain_history=False)
    )
    # v3 is the measured hotpatch: by now the v1 extent is the
    # registered baseline, and v3 differs from v1 by one
    # instruction (plus the trailing image CRC).
    patch = bed.sim.run_process(
        bed.control.inject(bed.codeflow, v3, "ingress", retain_history=False)
    )
    mode.deploy_cold_us = cold.total_us
    mode.hotpatch_us = patch.total_us
    mode.hotpatch_bytes = patch.bytes_moved
    mode.hotpatch_chunks = patch.delta_chunks
    mode.mode_used = patch.mode
    mode.base_version = patch.delta_base_version

    # The data path must decode v3 exactly -- a torn delta would
    # crash or return v2/v1 semantics here.
    result, _ = bed.sandbox.run_hook("ingress", bytes(range(256)))
    mode.exec_r0 = result.r0

    deltas = bed.obs.registry.get("rdx.deploy.delta")
    mode.delta_deploys = int(deltas.value) if deltas is not None else 0
    mode.delta_fallbacks = int(
        sum(
            metric.value
            for metric in bed.obs.registry.series("rdx.delta.fallback")
        )
    )
    mode.sim_time_us = bed.sim.now
    return mode

"""Warm-pool auto-scaling with extension live migration (paper §4).

Scaling out a pod = (a) spinning up the warm replica and moving
container state over RDMA (fast), plus (b) getting the sidecar's
filters live on the replica.  With a per-pod agent, (b) recompiles
every filter locally -- seconds-scale and the bottleneck; with RDX,
(b) is a CodeFlow migration -- microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Sequence

from repro import params
from repro.errors import WorkloadError
from repro.core.codeflow import CodeFlow
from repro.core.migration import MigrationManager
from repro.mesh.proxy import SidecarProxy
from repro.sim.core import Simulator
from repro.wasm.module import WasmModule


@dataclass
class ScaleOutReport:
    """Where the scale-out time went."""

    mode: str
    pod_spawn_us: float
    state_copy_us: float
    filter_reload_us: float

    @property
    def total_us(self) -> float:
        return self.pod_spawn_us + self.state_copy_us + self.filter_reload_us

    @property
    def filter_share(self) -> float:
        """Fraction of scale-out spent reloading filters."""
        return self.filter_reload_us / self.total_us if self.total_us else 0.0


class WarmPool:
    """A pool of pre-booted replica pods awaiting scale-out."""

    def __init__(self, sim: Simulator, replicas: Sequence[SidecarProxy]):
        self.sim = sim
        self._free = list(replicas)
        self.scale_outs: list[ScaleOutReport] = []

    @property
    def available(self) -> int:
        return len(self._free)

    def take_replica(self) -> SidecarProxy:
        if not self._free:
            raise WorkloadError("warm pool exhausted")
        return self._free.pop()

    # -- agent-path scale-out ----------------------------------------------------

    def scale_out_agent(
        self,
        replica: SidecarProxy,
        agent,
        filters: Sequence[WasmModule],
        hook_names: Sequence[str],
        container_state_bytes: int = 4 * 2**20,
    ) -> Generator:
        """Replica + agent-side filter reload (the §4 bottleneck)."""
        mark = self.sim.now
        yield self.sim.timeout(params.SERVERLESS_POD_SPAWN_US)
        pod_spawn = self.sim.now - mark

        mark = self.sim.now
        yield self.sim.timeout(params.rdma_transfer_us(container_state_bytes))
        state_copy = self.sim.now - mark

        mark = self.sim.now
        for module, hook in zip(filters, hook_names):
            yield from agent.inject(module, hook)
        reload_us = self.sim.now - mark

        report = ScaleOutReport(
            mode="agent",
            pod_spawn_us=pod_spawn,
            state_copy_us=state_copy,
            filter_reload_us=reload_us,
        )
        self.scale_outs.append(report)
        return report

    # -- RDX-path scale-out ---------------------------------------------------------

    def scale_out_rdx(
        self,
        src: CodeFlow,
        dst: CodeFlow,
        migration: MigrationManager,
        filter_names: Sequence[str],
        container_state_bytes: int = 4 * 2**20,
    ) -> Generator:
        """Replica + CodeFlow filter migration (microseconds)."""
        mark = self.sim.now
        yield self.sim.timeout(params.SERVERLESS_POD_SPAWN_US)
        pod_spawn = self.sim.now - mark

        mark = self.sim.now
        yield self.sim.timeout(params.rdma_transfer_us(container_state_bytes))
        state_copy = self.sim.now - mark

        mark = self.sim.now
        for name in filter_names:
            yield from migration.migrate(src, dst, name)
        reload_us = self.sim.now - mark

        report = ScaleOutReport(
            mode="rdx",
            pod_spawn_us=pod_spawn,
            state_copy_us=state_copy,
            filter_reload_us=reload_us,
        )
        self.scale_outs.append(report)
        return report

"""Extension live migration for microsecond auto-scaling (paper §4).

Scaling out a pod means moving the application container *and* its
sidecar extensions.  Warm-pod systems move container state over RDMA
in microseconds, leaving extension reload (seconds, agent path) as the
bottleneck.  RDX migrates the extension instead: the already-compiled
image is re-linked for the destination, its XState is copied with
one-sided READs/WRITEs, and the destination hook is flipped -- no
recompilation, no destination CPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import DeployError
from repro.core.codeflow import CodeFlow
from repro.core.xstate import XStateHandle


@dataclass
class MigrationReport:
    """Timing of one extension migration."""

    program_name: str
    src: str
    dst: str
    started_us: float
    xstate_copied_us: float = 0.0
    deployed_us: float = 0.0
    total_us: float = 0.0
    xstate_bytes: int = 0


class MigrationManager:
    """Moves live extensions (code + XState) between sandboxes."""

    def __init__(self, control_plane):
        self.control_plane = control_plane
        self.sim = control_plane.sim
        self.migrations: list[MigrationReport] = []

    def migrate(
        self,
        src: CodeFlow,
        dst: CodeFlow,
        program_name: str,
        xstate: Optional[XStateHandle] = None,
    ) -> Generator:
        """Migrate ``program_name`` from ``src``'s target to ``dst``'s.

        When ``xstate`` is given, its live contents are snapshotted
        from the source and deployed to the destination *before* the
        code goes live, so the migrated extension resumes with current
        state.  Returns a :class:`MigrationReport`.
        """
        record = src.deployed.get(program_name)
        if record is None:
            raise DeployError(f"{program_name!r} not deployed on source")
        report = MigrationReport(
            program_name=program_name,
            src=src.sandbox.name,
            dst=dst.sandbox.name,
            started_us=self.sim.now,
        )

        if xstate is not None:
            snapshot = yield from src.read_raw(
                xstate.data_addr, xstate.spec.data_bytes()
            )
            report.xstate_bytes = len(snapshot)
            from repro.ebpf.maps import BpfMap

            live = BpfMap.deserialize(
                snapshot,
                xstate.spec.map_type,
                xstate.spec.key_size,
                xstate.spec.value_size,
                xstate.spec.max_entries,
                name=xstate.spec.name,
            )
            existing = dst.scratchpad.by_name(xstate.spec.name)
            if existing is None:
                yield from dst.deploy_xstate(xstate.spec, initial=live)
            else:
                yield from dst.check_fence()
                flush = [(existing.data_addr, len(snapshot))]
                yield from dst.sync.install(
                    [(existing.data_addr, snapshot)], None, 0, 0, flush
                )
                yield from dst.sync.flush_chained(flush)
        report.xstate_copied_us = self.sim.now - report.started_us

        # Re-link the cached binary for the destination and deploy.
        mark = self.sim.now
        yield from self.control_plane.inject(
            dst, record.program, record.hook_name
        )
        report.deployed_us = self.sim.now - mark
        report.total_us = self.sim.now - report.started_us
        self.migrations.append(report)
        return report

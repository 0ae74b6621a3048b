"""Rollback and hot patching for buggy extensions (paper §4).

The control plane retains previous code images *in remote memory* --
detached images are only garbage-collected when code pages run low --
so a rollback is a single transactional pointer flip + flush:
microseconds, independent of target CPU load.  This avoids the
agent baseline's lockout effect, where rollback competes with the very
CPU saturation it is trying to relieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.errors import DeployError
from repro.ebpf.program import BpfProgram
from repro.core.codeflow import CodeFlow, DeployReport


@dataclass
class RollbackRecord:
    """One completed rollback, for audit."""

    program_name: str
    target: str
    from_addr: int
    to_addr: int
    duration_us: float


class RollbackManager:
    """Reverts faulty extensions to their last stable image."""

    def __init__(self, codeflow: CodeFlow):
        self.codeflow = codeflow
        self.sim = codeflow.sim
        self.audit_log: list[RollbackRecord] = []

    def rollback(self, program_name: str) -> Generator:
        """Flip the hook back to the previous image (microseconds).

        Raises :class:`DeployError` when no previous version is
        resident.  Returns the :class:`RollbackRecord`.
        """
        record = self.codeflow.deployed.get(program_name)
        if record is None:
            raise DeployError(f"{program_name!r} is not deployed")
        if not record.history:
            raise DeployError(f"{program_name!r} has no previous version")
        stable_addr = record.history[-1]
        started = self.sim.now
        from_addr = record.code_addr
        yield from self.codeflow.flip_to(program_name, stable_addr)
        # flip_to appended from_addr to history; drop the faulty image
        # from the rollback chain so repeated rollbacks walk backwards.
        record.history.remove(stable_addr)
        if record.history and record.history[-1] == from_addr:
            record.history.pop()
        if from_addr not in record.history:
            # Nothing refers to the faulty extent any more, and the
            # flip's hook flush already made that visible: it is freed
            # now, like a detached image.  A full deploy reusing it
            # flushes it (CodeFlow._plan).
            self.codeflow._retired.append(from_addr)
            self.codeflow.free_retired()
        entry = RollbackRecord(
            program_name=program_name,
            target=self.codeflow.sandbox.name,
            from_addr=from_addr,
            to_addr=stable_addr,
            duration_us=self.sim.now - started,
        )
        self.audit_log.append(entry)
        return entry

    def hot_patch(
        self, program: BpfProgram, hook_name: Optional[str] = None
    ) -> Generator:
        """Deploy a fixed image over a live (possibly faulty) one.

        Uses the normal CodeFlow injection pipeline; the previous image
        stays resident as the rollback target.  Returns the
        :class:`DeployReport`.
        """
        record = self.codeflow.deployed.get(program.name)
        hook = hook_name or (record.hook_name if record else None)
        if hook is None:
            raise DeployError(
                f"hot_patch of {program.name!r}: no hook known; pass hook_name"
            )
        report: DeployReport = yield from self.codeflow.control_plane.inject(
            self.codeflow, program, hook
        )
        return report

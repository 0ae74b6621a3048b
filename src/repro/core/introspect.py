"""Remote memory introspection over code, states, and hooks (paper §5).

For integrity, the paper proposes "signature-based remote runtime
checks or remote memory introspection" -- the control plane audits a
target entirely through one-sided READs, the way Remote Direct Memory
Introspection audits kernels.  Nothing runs on the target host.

The auditor cross-checks three planes of truth:

* **hooks** -- every hook pointer must be 0 or point at a code image
  the control plane deployed (and the image bytes must still CRC);
* **code** -- each deployed image's bytes in remote memory must hash
  to what the registry shipped (detects post-deploy tampering);
* **metadata** -- live descriptor slots must agree with the control
  plane's records (prog id, code address, length);
* **xstate** -- Meta-XState entries must point at headers with valid
  magic and the geometry the control plane allocated.

Each discrepancy becomes an :class:`IntegrityFinding`; severity
``critical`` findings are the ones an operator would page on.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field
from typing import Generator

from repro.core.codeflow import CodeFlow
from repro.core.xstate import decode_xstate_header
from repro.mem.layout import unpack_qword
from repro.obs import telemetry_of
from repro.sandbox.metadata import MetadataBlock, SLOT_LIVE


@dataclass(frozen=True)
class IntegrityFinding:
    """One discrepancy discovered by an audit."""

    severity: str  # "critical" | "warning"
    plane: str  # "hook" | "code" | "metadata" | "xstate"
    subject: str
    detail: str


@dataclass
class AuditReport:
    """Outcome of one remote audit."""

    target: str
    started_us: float
    finished_us: float
    bytes_read: int
    findings: list[IntegrityFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def critical(self) -> list[IntegrityFinding]:
        return [f for f in self.findings if f.severity == "critical"]

    @property
    def duration_us(self) -> float:
        return self.finished_us - self.started_us


class RemoteIntrospector:
    """Audits one CodeFlow's target with one-sided reads only."""

    def __init__(self, codeflow: CodeFlow):
        self.codeflow = codeflow
        self.sim = codeflow.sim
        self.obs = telemetry_of(codeflow.sim)
        #: Expected SHA-256 per deployed program name, captured at
        #: deploy time by :meth:`record_expected`.
        self._expected_hash: dict[str, str] = {}

    def snapshot_deployed(self) -> None:
        """Capture expected hashes for everything currently deployed."""
        for name, record in self.codeflow.deployed.items():
            image = self.codeflow.sandbox.host.memory.read(
                record.code_addr, record.code_len
            )
            self._expected_hash[name] = hashlib.sha256(image).hexdigest()

    # -- the audit -------------------------------------------------------

    def audit(self) -> Generator:
        """Run a full remote audit; returns an :class:`AuditReport`."""
        report = AuditReport(
            target=self.codeflow.sandbox.name,
            started_us=self.sim.now,
            finished_us=self.sim.now,
            bytes_read=0,
        )
        with self.obs.span("rdx.audit", target=report.target):
            yield from self._audit_hooks(report)
            yield from self._audit_code(report)
            yield from self._audit_metadata(report)
            yield from self._audit_xstate(report)
        report.finished_us = self.sim.now
        self._observe_audit(report)
        return report

    def _observe_audit(self, report: AuditReport) -> None:
        """Feed one finished audit into the metrics registry."""
        self.obs.counter("rdx.audit.runs").inc()
        self.obs.counter("rdx.audit.bytes_read").inc(report.bytes_read)
        self.obs.histogram("rdx.audit.duration_us").observe(report.duration_us)
        for finding in report.findings:
            self.obs.counter(
                "rdx.audit.findings",
                severity=finding.severity,
                plane=finding.plane,
            ).inc()

    def _read(self, report: AuditReport, addr: int, length: int) -> Generator:
        data = yield from self.codeflow.sync.read(addr, length)
        report.bytes_read += length
        return data

    def _audit_hooks(self, report: AuditReport) -> Generator:
        manifest = self.codeflow.manifest
        known_addrs = {
            record.code_addr for record in self.codeflow.deployed.values()
        }
        for record in self.codeflow.deployed.values():
            known_addrs.update(record.history)
        table = yield from self._read(
            report, manifest.hook_table_addr, len(manifest.hook_layout) * 8
        )
        for hook, slot in sorted(manifest.hook_layout.items(), key=lambda kv: kv[1]):
            pointer = unpack_qword(table[slot * 8 : slot * 8 + 8])
            if pointer == 0:
                continue
            if pointer not in known_addrs:
                report.findings.append(
                    IntegrityFinding(
                        severity="critical",
                        plane="hook",
                        subject=hook,
                        detail=f"points at unknown code {pointer:#x}",
                    )
                )

    def _audit_code(self, report: AuditReport) -> Generator:
        for name, record in sorted(self.codeflow.deployed.items()):
            image = yield from self._read(
                report, record.code_addr, record.code_len
            )
            body, crc_bytes = image[:-4], image[-4:]
            if zlib.crc32(body) & 0xFFFFFFFF != int.from_bytes(crc_bytes, "little"):
                report.findings.append(
                    IntegrityFinding(
                        severity="critical",
                        plane="code",
                        subject=name,
                        detail="image CRC mismatch (corrupted in memory)",
                    )
                )
                continue
            expected = self._expected_hash.get(name)
            if expected and hashlib.sha256(image).hexdigest() != expected:
                report.findings.append(
                    IntegrityFinding(
                        severity="critical",
                        plane="code",
                        subject=name,
                        detail="image hash differs from shipped binary",
                    )
                )

    def _audit_metadata(self, report: AuditReport) -> Generator:
        manifest = self.codeflow.manifest
        by_slot = {
            record.metadata_slot: (name, record)
            for name, record in self.codeflow.deployed.items()
        }
        for slot, (name, record) in sorted(by_slot.items()):
            raw = yield from self._read(
                report, manifest.metadata_addr + slot * 256, 256
            )
            block = MetadataBlock.decode(raw)
            if block.state != SLOT_LIVE:
                report.findings.append(
                    IntegrityFinding(
                        severity="warning",
                        plane="metadata",
                        subject=name,
                        detail=f"descriptor state {block.state} != live",
                    )
                )
            if block.code_addr != record.code_addr:
                report.findings.append(
                    IntegrityFinding(
                        severity="critical",
                        plane="metadata",
                        subject=name,
                        detail=(
                            f"descriptor code_addr {block.code_addr:#x} != "
                            f"deployed {record.code_addr:#x}"
                        ),
                    )
                )
            if block.prog_id != record.program.prog_id:
                report.findings.append(
                    IntegrityFinding(
                        severity="warning",
                        plane="metadata",
                        subject=name,
                        detail="descriptor prog_id mismatch",
                    )
                )

    def _audit_xstate(self, report: AuditReport) -> Generator:
        scratchpad = self.codeflow.scratchpad
        for index, handle in sorted(scratchpad._entries.items()):
            entry_raw = yield from self._read(
                report, scratchpad.meta_entry_addr(index), 8
            )
            entry = unpack_qword(entry_raw)
            if entry != handle.header_addr:
                report.findings.append(
                    IntegrityFinding(
                        severity="critical",
                        plane="xstate",
                        subject=handle.name,
                        detail=(
                            f"meta entry {entry:#x} != allocated "
                            f"{handle.header_addr:#x}"
                        ),
                    )
                )
                continue
            header_raw = yield from self._read(report, handle.header_addr, 16)
            header = decode_xstate_header(header_raw)
            if header is None:
                report.findings.append(
                    IntegrityFinding(
                        severity="critical",
                        plane="xstate",
                        subject=handle.name,
                        detail="header magic destroyed",
                    )
                )
            elif (
                header.key_size != handle.spec.key_size
                or header.value_size != handle.spec.value_size
                or header.max_entries != handle.spec.max_entries
            ):
                report.findings.append(
                    IntegrityFinding(
                        severity="critical",
                        plane="xstate",
                        subject=handle.name,
                        detail="header geometry tampered",
                    )
                )


def continuous_audit(
    introspector: RemoteIntrospector,
    interval_us: float = 10_000.0,
    duration_us: float = 1_000_000.0,
) -> Generator:
    """Background auditing loop; returns the list of AuditReports."""
    reports = []
    end = introspector.sim.now + duration_us
    while introspector.sim.now < end:
        yield introspector.sim.timeout(interval_us)
        report = yield from introspector.audit()
        reports.append(report)
        if report.critical:
            break  # surface immediately; caller decides on rollback
    return reports

"""Checker entry points: run the detectors over recorded traces.

Three consumers share these helpers:

* the pytest fixture in ``tests/conftest.py`` drains every simulator
  that emitted hb events during a test and fails the test on findings;
* ``python -m repro.cli races`` replays the fault campaign and the
  known-bad schedules with checking on;
* :mod:`repro.exp.hb_schedules` asserts the detectors actually fire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.hb import events as hb_events
from repro.hb.detect import RaceFinding, detect_races
from repro.hb.events import extract
from repro.hb.graph import HbGraph
from repro.obs import telemetry_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator
    from repro.sim.trace import TraceRecorder


@dataclass
class CheckReport:
    """Outcome of one checker run over one trace."""

    findings: list[RaceFinding] = field(default_factory=list)
    events: int = 0
    #: True when the recorder's ring buffer evicted events: the graph
    #: would be missing edges (eviction drops *oldest* first, i.e.
    #: exactly the ordering sources), so no verdict is sound and the
    #: trace is reported as unchecked rather than clean.
    truncated: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings and not self.truncated


def check_recorder(
    recorder: "TraceRecorder", check_unflushed_exec: bool = False
) -> CheckReport:
    """Build the HB graph from a recorder's hb events and detect."""
    report = CheckReport(truncated=recorder.dropped > 0)
    hb = extract(recorder)
    report.events = len(hb)
    if report.truncated or not hb:
        return report
    graph = HbGraph(hb)
    report.findings = detect_races(
        graph, check_unflushed_exec=check_unflushed_exec
    )
    return report


def check_sim(
    sim: "Simulator", check_unflushed_exec: bool = False
) -> CheckReport:
    return check_recorder(
        telemetry_of(sim).recorder,
        check_unflushed_exec=check_unflushed_exec,
    )


def consume(sim: "Simulator") -> CheckReport:
    """Check one simulator and drop it from the active registry.

    Known-race tests use this to collect their expected findings so
    the teardown fixture does not re-flag them.
    """
    report = check_sim(sim)
    hb_events.forget(sim)
    return report


def check_active() -> "list[tuple[Simulator, CheckReport]]":
    """Check every registered simulator, in registration order."""
    return [(sim, check_sim(sim)) for sim in hb_events.active_sims()]


def reset_active() -> None:
    hb_events.reset()


def format_findings(
    findings: list[RaceFinding], limit: Optional[int] = 20
) -> str:
    if not findings:
        return "no races found"
    shown = findings if limit is None else findings[:limit]
    lines = [f"{len(findings)} race finding(s):"]
    for i, finding in enumerate(shown, 1):
        lines.append(f"[{i}] {finding.describe()}")
    if len(shown) < len(findings):
        lines.append(f"... and {len(findings) - len(shown)} more")
    return "\n".join(lines)

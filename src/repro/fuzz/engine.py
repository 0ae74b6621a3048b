"""The fuzz loop: generate a tape, run a scenario under it, judge.

One iteration = one :class:`~repro.fuzz.plan.SchedulePlan` driving one
scenario on a fresh simulator, judged by the full PR-5 detector suite
plus the simulator's own failed-process ledger.  Verdicts:

``clean``
    No findings, no unmodeled process failures, trace complete.
``finding``
    The HB checker reported >= 1 race.
``invariant``
    A simulator process died with an exception outside the
    :class:`~repro.errors.ReproError` hierarchy -- a bug in the stack
    itself, not a modeled fault.
``inconclusive``
    The bounded recorder dropped events; the HB graph would be missing
    edges, so *no* verdict is sound.  Never reported as clean.

Determinism contract: ``run_plan`` with the same (scenario, plan seed
or frozen tape, workload seed) produces a byte-identical event digest
-- enforced by :func:`repro.fuzz.determinism.deterministic_ids`
pinning every process-global id counter for the run's duration.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro import params
from repro.errors import ReproError
from repro.fuzz import hooks
from repro.fuzz.determinism import deterministic_ids
from repro.fuzz.minimize import minimize_decisions
from repro.fuzz.plan import Decision, SchedulePlan
from repro.fuzz.scenarios import Scenario
from repro.hb import checker
from repro.hb import events as hb_events
from repro.hb.detect import RaceFinding
from repro.sim.core import Simulator
from repro.sim.rand import stable_seed

#: Default per-iteration trace bound.  Generous for the target
#: scenarios (the densest, broadcast-8, emits ~15k hb events) while
#: keeping a 1000-iteration run's peak memory at one recorder's worth
#: -- each iteration tears its recorder down before the next starts.
DEFAULT_MAX_EVENTS = 50_000


@dataclass
class RunResult:
    """One scenario execution under one decision tape."""

    scenario: str
    verdict: str  # "clean" | "finding" | "invariant" | "inconclusive"
    findings: list[RaceFinding] = field(default_factory=list)
    #: Detector kinds present, in first-seen order.
    kinds: tuple[str, ...] = ()
    events: int = 0
    truncated: bool = False
    #: sha256 over the extracted hb events -- the determinism witness.
    digest: str = ""
    #: (process name, exception repr) for unmodeled process deaths.
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: The decisions the plan actually consulted (generate mode: the
    #: nonzero ones; these are what minimization shrinks).
    decisions: list[Decision] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.verdict in ("finding", "invariant")


def run_plan(
    scenario: Scenario,
    plan: SchedulePlan,
    workload_seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> RunResult:
    """Execute one scenario under one tape, fully isolated.

    Builds a fresh simulator on the scenario's arm with hb checking
    on, pins the id counters, binds the tape and a fresh bounded
    recorder, drives the scenario, and unconditionally tears
    everything down (recorder cleared, hb registry dropped) so a
    million-iteration loop holds one trace in memory at a time.
    """
    plan.reset()
    sim: Optional[Simulator] = None
    recorder = None
    try:
        with deterministic_ids():
            sim = Simulator()
            params.configure(sim, replace(scenario.config, hb_check=True))
            recorder = hooks.bind(sim, plan, max_events=max_events)
            drive_error: Optional[BaseException] = None
            try:
                scenario.drive(sim, workload_seed, plan)
            except ReproError:
                pass  # modeled failure a driver chose not to swallow
            except Exception as exc:  # noqa: BLE001 -- classified below
                drive_error = exc
            report = checker.check_sim(sim)
        digest = _digest(recorder)
        failures = [
            (name, f"{type(exc).__name__}: {exc}")
            for name, exc in sim.failed_processes
            if not isinstance(exc, ReproError)
        ]
        if drive_error is not None:
            failures.append(
                (
                    "<drive>",
                    "".join(
                        traceback.format_exception_only(drive_error)
                    ).strip(),
                )
            )
        kinds: list[str] = []
        for finding in report.findings:
            if finding.kind not in kinds:
                kinds.append(finding.kind)
        if report.truncated:
            verdict = "inconclusive"
        elif failures:
            verdict = "invariant"
        elif report.findings:
            verdict = "finding"
        else:
            verdict = "clean"
        return RunResult(
            scenario=scenario.name,
            verdict=verdict,
            findings=report.findings,
            kinds=tuple(kinds),
            events=report.events,
            truncated=report.truncated,
            digest=digest,
            failures=failures,
            decisions=list(plan.decisions),
        )
    finally:
        if sim is not None:
            hb_events.forget(sim)
        if recorder is not None:
            recorder.clear()


def _digest(recorder) -> str:
    """Order-sensitive hash of the run's hb events."""
    hasher = hashlib.sha256()
    for event in hb_events.extract(recorder):
        hasher.update(
            json.dumps(event.to_dict(), sort_keys=True).encode()
        )
    return hasher.hexdigest()


@dataclass
class MinimizedFailure:
    """A failure shrunk to its smallest reproducing decision tape."""

    scenario: str
    #: Detector kind -- or ``"invariant"`` for unmodeled crashes.
    kind: str
    plan: SchedulePlan  # frozen, minimized
    result: RunResult  # the replay of the minimized plan
    iteration: int
    original_decisions: int
    minimized_decisions: int
    minimize_runs: int


@dataclass
class FuzzReport:
    """Outcome of one ``fuzz()`` campaign over one scenario."""

    scenario: str
    iterations: int = 0
    verdicts: dict[str, int] = field(default_factory=dict)
    #: First failure per distinct kind, minimized.
    failures: list[MinimizedFailure] = field(default_factory=list)

    @property
    def kinds_found(self) -> tuple[str, ...]:
        return tuple(f.kind for f in self.failures)


def fuzz(
    scenario: Scenario,
    iterations: int,
    seed: int = 0,
    workload_seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
    minimize_budget: int = 64,
    progress: Optional[Callable[[int, RunResult], None]] = None,
) -> FuzzReport:
    """Run ``iterations`` tapes over ``scenario``; minimize failures.

    Per-iteration plan seeds derive from ``(seed, scenario, i)`` so a
    campaign is reproducible from its base seed alone, and any single
    iteration can be regenerated without rerunning the loop.  The
    first failure of each distinct kind is shrunk with ddmin and
    verified by replaying the frozen minimized tape.
    """
    report = FuzzReport(scenario=scenario.name)
    seen_kinds: set[str] = set()
    for i in range(iterations):
        plan = SchedulePlan(
            seed=stable_seed(seed, scenario.name, i), scenario=scenario.name
        )
        result = run_plan(
            scenario, plan, workload_seed=workload_seed, max_events=max_events
        )
        report.iterations += 1
        report.verdicts[result.verdict] = (
            report.verdicts.get(result.verdict, 0) + 1
        )
        if progress is not None:
            progress(i, result)
        if not result.failed:
            continue
        for kind in _failure_kinds(result):
            if kind in seen_kinds:
                continue
            seen_kinds.add(kind)
            report.failures.append(
                _shrink(
                    scenario, plan, result, kind, i,
                    workload_seed=workload_seed,
                    max_events=max_events,
                    budget=minimize_budget,
                )
            )
    return report


def _failure_kinds(result: RunResult) -> tuple[str, ...]:
    kinds = list(result.kinds)
    if result.failures:
        kinds.append("invariant")
    return tuple(kinds)


def _shrink(
    scenario: Scenario,
    plan: SchedulePlan,
    result: RunResult,
    kind: str,
    iteration: int,
    workload_seed: int,
    max_events: int,
    budget: int,
) -> MinimizedFailure:
    """ddmin the tape down to the fewest decisions that still trip
    ``kind``, then verify the survivor by replaying it frozen."""
    runs = 0

    def still_fails(decisions: list[Decision]) -> bool:
        nonlocal runs
        runs += 1
        trial = run_plan(
            scenario,
            plan.replay_plan(decisions),
            workload_seed=workload_seed,
            max_events=max_events,
        )
        return kind in _failure_kinds(trial)

    minimized = minimize_decisions(
        result.decisions, still_fails, budget=budget
    )
    final_plan = plan.replay_plan(minimized)
    final = run_plan(
        scenario, final_plan, workload_seed=workload_seed,
        max_events=max_events,
    )
    assert kind in _failure_kinds(final), (
        f"minimized tape for {scenario.name}/{kind} no longer reproduces "
        "-- nondeterministic scenario?"
    )
    return MinimizedFailure(
        scenario=scenario.name,
        kind=kind,
        plan=final_plan,
        result=final,
        iteration=iteration,
        original_decisions=len(result.decisions),
        minimized_decisions=len(minimized),
        minimize_runs=runs,
    )

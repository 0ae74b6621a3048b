"""Crash campaign: broadcasts under an adversarial fault schedule.

Drives the full deploy-reliability stack end to end: each round arms
one fault (payload corruption, transient transport error, node crash,
link partition, or none) against a random target, runs a cluster-wide
``rdx_broadcast``, and checks the §4 invariants afterwards:

* **no stranded targets** -- every reachable sandbox's bubble flag is
  lowered whether the round committed, aborted, or degraded;
* **all-or-nothing** -- an aborted round leaves every reachable hook
  running the previous round's image;
* **absorption** -- one-shot transient faults are retried away and the
  round commits as if nothing happened.

``allow_partial=True`` runs the quorum mode instead: rounds with a dead
target commit ``degraded`` on the survivors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.broadcast import CodeFlowGroup
from repro.core.faults import FaultInjector, FaultKind
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import BroadcastAborted
from repro.exp.harness import make_testbed

#: Fault schedule entries a campaign draws from ("none" = clean round).
CAMPAIGN_KINDS = (
    None,
    FaultKind.TORN_WRITE,
    FaultKind.BIT_FLIP,
    FaultKind.TRANSIENT,
    FaultKind.NODE_CRASH,
    FaultKind.LINK_PARTITION,
)


@dataclass
class CampaignRound:
    """One broadcast attempt under one (or no) armed fault."""

    index: int
    fault: str
    target: str
    committed: bool = False
    aborted: bool = False
    degraded: bool = False
    #: Bubble flags all lowered on reachable hosts afterwards.
    bubbles_clear: bool = False
    retries: int = 0
    abort_us: float = 0.0
    error: str = ""


@dataclass
class FaultCampaignResult:
    n_hosts: int
    rounds_run: int
    seed: int
    allow_partial: bool
    rounds: list[CampaignRound] = field(default_factory=list)
    #: Rounds that left any reachable bubble raised (must stay 0).
    stranded: int = 0
    aborts: int = 0
    degraded: int = 0
    committed: int = 0
    retries_total: int = 0
    faults_injected: int = 0
    #: Deploy legs that shipped as deltas (``hotpatch=True`` rounds).
    delta_legs: int = 0
    #: One-sided telemetry scrapes performed (when ``scrape=True``).
    scrapes: int = 0
    scrape_retries: int = 0
    scrape_torn: int = 0


def _counter_total(obs, name: str) -> float:
    """Sum a counter across all label sets."""
    return sum(
        row["value"]
        for row in obs.registry.snapshot()
        if row["name"] == name and row["type"] == "counter"
    )


def run_fault_campaign(
    n_hosts: int = 3,
    rounds: int = 8,
    seed: int = 0,
    allow_partial: bool = False,
    program_insns: int = 400,
    testbed=None,
    scrape: bool = False,
    hotpatch: bool = False,
) -> FaultCampaignResult:
    """Run ``rounds`` faulted broadcasts on an ``n_hosts`` testbed.

    ``scrape=True`` attaches a :class:`~repro.obs.scrape.TelemetryScraper`
    behind a lease detector and runs a one-sided metric scrape of every
    target after each healed round -- the agentless monitoring loop
    exercised under the same fault schedule as the deploys.

    ``hotpatch=True`` makes every round a one-instruction variant of
    the same base program per target -- the layout fingerprint then
    holds across rounds, so on the pipelined arm the broadcasts ask
    for deltas, steady-state rounds ship them and the whole fault
    schedule lands on the delta path (fresh targets, just-rebooted
    targets, and post-rollback rounds still fall back to full).
    """
    rng = random.Random(seed)
    bed = testbed or make_testbed(n_hosts=n_hosts, cores_per_host=8, seed=seed)
    group = CodeFlowGroup(bed.codeflows)
    result = FaultCampaignResult(
        n_hosts=n_hosts, rounds_run=rounds, seed=seed,
        allow_partial=allow_partial,
    )
    health = None
    if scrape:
        from repro.core.health import HealthDetector
        from repro.obs.scrape import TelemetryScraper

        scraper = TelemetryScraper(bed.codeflows)
        health = HealthDetector(bed.codeflows, scraper=scraper)

    bases = [
        make_stress_program(program_insns, seed=i + 1, name=f"campaign{i}")
        for i in range(len(bed.codeflows))
    ] if hotpatch else []

    def programs(version: int):
        # Same name every round: each commit chains onto the hook's
        # history, so an abort has a prior image to roll back to.
        if hotpatch:
            return [
                make_stress_variant(base, version) for base in bases
            ]
        return [
            make_stress_program(
                program_insns, seed=version * 31 + i, name=f"campaign{i}"
            )
            for i in range(len(bed.codeflows))
        ]

    # Round 0 baseline: a clean broadcast so later aborts roll back to
    # a known-good image rather than detaching.
    bed.sim.run_process(group.broadcast(programs(1), "ingress"))

    for index in range(rounds):
        kind = rng.choice(CAMPAIGN_KINDS)
        target_index = rng.randrange(len(bed.codeflows))
        codeflow = bed.codeflows[target_index]
        injector = FaultInjector(codeflow, seed=seed * 101 + index)
        entry = CampaignRound(
            index=index,
            fault=kind.value if kind else "none",
            target=codeflow.sandbox.name,
        )
        retries_before = _counter_total(bed.obs, "rdx.retry.attempts")
        if kind is not None:
            injector.arm(kind)
            injector.attach()
        try:
            outcome = bed.sim.run_process(
                group.broadcast(
                    programs(index + 2), "ingress",
                    allow_partial=allow_partial, delta=hotpatch,
                )
            )
            entry.committed = True
            entry.degraded = outcome.degraded
        except BroadcastAborted as err:
            entry.aborted = True
            entry.abort_us = err.result.abort_us if err.result else 0.0
            entry.error = str(err)
        finally:
            injector.detach()
            injector.disarm()
        # The §4 invariant, checked while the fault still holds: no
        # *reachable* sandbox is left buffering behind a raised bubble.
        # (A crashed host's flag may survive in DRAM until the next
        # broadcast lowers it -- its data path is down regardless.)
        entry.bubbles_clear = all(
            sandbox.bubble_active() is False
            for sandbox in bed.sandboxes
            if not sandbox.host.crashed
        )
        # Heal the environment for the next round.
        injector.recover_target()
        injector.heal_partition()
        injector.delay_target(0)
        if health is not None:
            # Agentless monitoring round: lease probe + piggybacked
            # one-sided scrape of every target's telemetry segment.
            bed.sim.run_process(health.probe_all())
        entry.retries = int(
            _counter_total(bed.obs, "rdx.retry.attempts") - retries_before
        )
        if not entry.bubbles_clear:
            result.stranded += 1
        result.aborts += int(entry.aborted)
        result.degraded += int(entry.degraded)
        result.committed += int(entry.committed)
        result.retries_total += entry.retries
        result.rounds.append(entry)

    result.faults_injected = int(
        _counter_total(bed.obs, "rdx.faults.injected")
    )
    result.delta_legs = int(_counter_total(bed.obs, "rdx.deploy.delta"))
    if scrape:
        result.scrapes = int(_counter_total(bed.obs, "rdx.scrape.count"))
        result.scrape_retries = int(
            _counter_total(bed.obs, "rdx.scrape.retries")
        )
        result.scrape_torn = int(_counter_total(bed.obs, "rdx.scrape.torn"))
    return result

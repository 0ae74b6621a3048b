"""Broadcast equivalence oracle.

How ``rdx_broadcast`` fans out inside :mod:`repro.core.broadcast` is an
implementation detail; what it does to every target, the journal, the
counters and the simulated clock is not.  The table below was taken
from the two fan-outs of commit 29a7a99 (a hub-and-spoke leg and
lower list beside a tree leg, a relay deploy and tree lowers, picked
by ``RDX_TREE_BROADCAST`` at four sites; regenerate with
``PYTHONPATH=src python tests/test_broadcast_oracle.py``) and pins, per
arm and scenario, three rounds on one 13-target testbed: round 0 and
round 2 run the scenario's fault, round 1 runs clean in between, so an
abort is seen both over fresh targets (detach) and over deployed ones
(rollback).

The table has since been regenerated by that command twelve times, for
changes that move rows on purpose:

* the single fan-out: a forest root no longer waits on an event that
  was succeeded before the root was spawned (two calendar entries per
  root per walked phase, relay arms only);
* the install as one chain and the rollback that frees what it drops:
  every pipelined row is faster and has fewer events (the commit CAS
  and the flush doorbells ride the deploy chain); the ``leak`` of every
  aborted round returns to its pre-broadcast value, and the serial
  ``abort`` rows pay a ``cc_event`` per leg that reuses a freed extent;
* the fence under the dispatch: a leg its bubble raise did not fence
  (a relayed leg, or any leg without BBU) posts its epoch READ while
  its dispatch CPU preps the chain, so each relayed level of the forest
  is 2.70 us shorter (tree-d2 windows -5.40, tree-d4 and sharded-k3
  -2.70, plus one level without BBU) and each such leg runs 2 more
  events; flat ``no-bbu`` saves only 0.48 us, its legs queueing on the
  control plane's cores.  Flat rows with BBU and every serial row are
  unchanged;
* the JIT under the verifier: each Phase-0 compile miss charges its JIT
  on a second control-host core while its verifier's charge runs.  An
  unsharded plane's two cores are already saturated by 13 concurrent
  misses, so only the tail moves (``total_us`` -0.05 us a round, 2
  more events a miss); each K=3 shard plane finishes Phase 0 37.5 us
  sooner (3 more events a miss).  No bubble window, outcome, leak,
  counter or journal entry moved, and every serial row is unchanged;
* the raise down the forest: a child's bubble rises over its parent's
  relay QP (epoch READ and flag chain), so the relay arms' raises stop
  sharing the control RNIC's four slots.  tree-d2 ``total_us`` +1.30 us
  (the N=13 raise is three levels deep), tree-d4 -6.10 us, sharded-k3
  window and total +4.70 us (one shard of the 5/4/4 split gets a
  relayed level, and the merged window runs from the earliest raise);
  ``host-crashed`` on tree-d2 / tree-d4 +76.87 / +69.47 us, the dead
  target tried over the relay and then directly
  (``relay_fallback{reason=raise}``).  A round runs 11 (tree-d2), 9
  (tree-d4) and 1 (sharded-k3) more events.  No other window, outcome,
  leak or journal entry moved; flat and serial rows are unchanged;
* the stage outside the bubble: a pipelined leg stages (image,
  descriptor, flushes, read-back) before the window opens, its raise
  riding the stage chain, and the window holds the flip walk (a CAS
  and a doorbell per target) and the lowers.  Every pipelined row
  moved, every serial row is unchanged.  Round windows: flat
  43.38 -> 26.61, tree-d2 66.84 -> 20.96, tree-d4 48.23 -> 15.30,
  sharded-k3 52.63 -> 33.97 us; totals fall 7.4-12.1 us.  ``no-bbu``
  totals rise 7.4-12.6 us (its flips now wait for every stage) while
  its windows shrink to the flip walk.  ``abort`` and
  ``stale-relayed`` on unsharded arms abort before any flip: the
  survivors read ``ok`` (unstaged) instead of ``ok/det`` / ``ok/rb``,
  ``abort_us`` is 0 and no stale bubble is left up (the stale fence
  precedes the raise).  ``host-crashed`` counts the dead relay's
  direct retry under ``TransientFault`` instead of ``raise``, and
  ``rdx.broadcast.target.latency_us`` observes 13 spans (the dead
  target's stage ran).  ``plane-crash`` now fails during the stage
  walk: fewer bubbles up, ``INTEND prepared`` dangling, and the staged
  descriptors are left for the reconciler (slots 13 -> 18-26);
* the stage under the verifier: Phase 0 spawns one prepare per
  verdict key and links that key's legs once its JIT's charge ends; a
  leg that ships its Phase-0 image stages while a verdict is still
  pending -- bare -- and a fenced raise walk (an epoch READ and a flag
  chain per target) follows the verdict.  Every serial row is
  unchanged.  An unsharded plane's two cores are saturated by 13
  concurrent misses, so every verdict is in before the last JIT ends
  and the stages start: flat, tree-d2 and tree-d4 move in ``events``
  only (+66, +65 and +65 a round: a prepare, a prelink and a link
  process per key where a prepare per leg coalesced).  A K=3 shard
  plane's verdicts are still pending when its stages start, so every
  sharded-k3 row moved, by ~+300 events a round (the raise walk), and
  its windows and totals fall (the merged window runs from the
  earliest raise, and every shard now raises after its verdict):
  clean 33.97 -> 20.71 / 202.68 -> 178.11 us, ``no-bbu``
  26.56 -> 10.60 / 195.28 -> 163.30 (no bubble, but the walk still
  runs as an epoch READ per staged leg, +121 events a round: the
  flips must not follow a stage fence a verifier's charge old),
  ``abort`` -13.26 / -24.58,
  ``stale-relayed`` -2.70 / -14.01 (``abort_us`` unchanged),
  ``host-crashed`` 121.88 -> 81.43 / 290.59 -> 238.83, and
  ``root-partial`` total 181.07 -> 169.76 (its window unchanged).  In
  ``plane-crash`` shard 1 now dies in its stage walk before
  ``prepared`` is journaled.
* compiles yield the control CPU: a verifier or JIT charge requests a
  core below install work, so a leg's link now takes a freed core of
  the 2-core control host ahead of a queued verifier charge of the 13
  distinct programs.  The last verdict, and every round's
  ``total_us``, lands exactly 0.100 us later on the pipelined
  ``flat``, ``tree-d2`` and ``tree-d4`` arms (28 rows; ``sim.now``
  accumulates it).  No window, outcome, event count, leak, counter or
  journal entry moved; sharded-k3 and every serial row are unchanged.
* one hook commit: an abort's detach and rollback commit the hook as
  a deploy's flip does -- on the pipelined arm one 2-WR chain of the
  fenced CAS and the hook line's doorbell, no spawned doorbell writer
  -- and a rollback reads the epoch first, like a detach.  Only rows
  whose abort undoes flipped legs moved: sharded-k3 ``abort``,
  ``stale-relayed``, ``shard-forfeits`` and ``plane-crash``, and
  serial ``abort``.  Detaching rounds get faster (sharded ``abort``
  round 0: ``abort_us`` 142.21 -> 124.22, window 79.96 -> 72.46 us);
  rolling-back rounds pay the fence READ (sharded round 2 ``abort_us``
  77.40 -> 91.82, 12 x +1.2 us; serial, whose commit shape is
  unchanged, 77.40 -> 109.81, 12 x +2.7 us).  No outcome, bubble,
  leak, counter or journal entry moved.
* raise-then-flip: under a pending verdict one walk raises each leg
  and flips it once its own raise flush landed, where a raise walk
  and then a flip walk from the roots ran.  Only sharded-k3 moved (an
  unsharded plane's verdicts are in before its stages start).  Every
  round runs 1-12 fewer events (one walk's node processes and
  wake-ups).  The failing rounds of ``root-partial``,
  ``stale-relayed`` and ``shard-forfeits`` move in events only; every
  other round sheds 2.95 us of window and total (clean
  20.71 -> 17.76 / 178.11 -> 175.16 us; ``no-bbu`` 10.60 -> 7.65,
  its window opening at the first flip).  No outcome, ``abort_us``,
  leak, counter or journal entry moved.
* the serial arm as a schedule of the one install sequence: a serial
  leg stages before the window like a pipelined one (one signaled
  WRITE per op, its raise flag after the descriptor, a blocking flush)
  and flips in the flip walk (``rdx_tx`` and a blocking flush); each
  sequential lower defers its flush.  Only serial rows moved.  Windows
  209.02 -> 54.56 us (``no-verify`` 206.20, ``root-partial`` 194.72,
  ``host-crashed`` 252.09 -> 119.98, ``no-bbu`` 144.56 -> 13.80);
  totals fall 32.55 us (``root-partial`` 35.20, ``host-crashed``
  85.26; ``no-bbu`` rises 7.35: its flips now wait for every stage).  ``abort`` aborts before any flip: ``ok/det`` and
  ``ok/rb`` read ``ok``, ``abort_us`` is 0 and the window 37.11 us.
  ``plane-crash`` round 1 leaves the staged descriptors to the
  reconciler (slots 13 -> 26) with ``INTEND prepared`` dangling, as
  the pipelined arms' rows read.
* the layout certified by the hook's owner: a leg whose hook owner was
  linked at the new image's layout skips the 8 us stub rendezvous.
  Rounds 1 and 2 of every tree-d2, tree-d4 and sharded-k3 row run
  5-13 fewer events (one per leg that skipped it); tree ``total_us``
  falls 8 us per level of the forest that skipped it (tree-d2 -16 or
  -24, tree-d4 -8 or -16), sharded totals do not move.  No window,
  outcome, leak, counter or journal entry moved; flat and serial rows
  are unchanged.
* each bubble lowered behind its own flip: the commit decision is
  taken as the last flip's CQE is in, each lower waits only for its
  own leg's hook-line flush, and the lowers walk the forest the
  stages and flips walked, in group order, with a failed leg lowered
  by the control plane beside the walk.  Every committing round of
  every pipelined arm sheds 2.00 us of window and total; ``host-crashed``
  on tree-d2 / tree-d4 sheds 9.40 / 6.70 us (the dead target is no
  longer an interior node of the lower forest).  Aborting rounds keep
  their times.  ``events`` moved only on rounds with a failed leg
  (flat ``abort``, ``root-partial`` and ``host-crashed``, sharded-k3
  ``abort`` and ``host-crashed``: +1 a failed round, the spawned
  beside-lower).  No outcome, bubble,
  leak, counter or journal entry moved; every serial and ``no-bbu``
  row is unchanged.
* only a posted raise is lowered: a leg whose stage failed before its
  install went out -- the patched entry of ``abort`` and
  ``root-partial``, the dead host's fence in ``host-crashed`` -- raised
  nothing, so nothing lowers it.  Every ``abort``, ``root-partial``
  and ``host-crashed`` row moved, and no other: a failed round runs 15
  fewer events (serial 21; ``host-crashed`` 30, serial 27, where the
  dead lower burnt its retry budget), and the clean round between
  keeps the cumulative count.  ``host-crashed`` windows fall to the
  ``root-partial`` ones (flat and tree-d2 76.98 / 76.35 -> 18.96,
  tree-d4 74.02 / 73.40 -> 13.30, sharded-k3 76.48 / 75.85 -> 15.76,
  serial 119.98 / 119.36 -> 51.86 us; totals 54.3-68.1 us lower) and
  ``bubble_lower_failed`` leaves their counters.  Where the failed
  leg's beside-lower was the window's last chain, the window and total
  shed it: flat ``abort`` and ``root-partial`` -2.70 us, serial -2.70
  us, sharded-k3 ``root-partial`` -0.70 us; the tree arms move in
  events only.  No outcome, bubble, leak or journal entry moved.

The ``leak`` column is the abort leak check: live code bytes, claimed
descriptor slots and deployed records, summed over the targets.
"""

import re
from contextlib import contextmanager
from dataclasses import replace
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.broadcast import CodeFlowGroup, _FanoutPlan
from repro.core.codeflow import CodeFlow
from repro.core.control_plane import RdxControlPlane
from repro.ebpf.stress import make_stress_program
from repro.errors import (
    BroadcastAborted,
    DeployError,
    HostUnreachable,
)
from repro.exp.harness import make_testbed
from repro.exp.scale import sharded_testbed
from repro.hb import checker
from repro.mem.layout import pack_qword
from repro.params import DEFAULT, Config, configure
from repro.sim.core import Simulator

N = 13
ROUNDS = 3


class Arm(NamedTuple):
    tree: bool
    degree: int
    shards: int  # 0: one unsharded CodeFlowGroup
    pipelined: bool = True

    @property
    def config(self) -> Config:
        return replace(
            DEFAULT, tree_broadcast=self.tree, tree_degree=self.degree,
            pipelined_deploy=self.pipelined, obs=True,
            obs_target_labels=False,
        )


ARMS = {
    "flat": Arm(False, 4, 0),
    "tree-d2": Arm(True, 2, 0),
    "tree-d4": Arm(True, 4, 0),
    "sharded-k3": Arm(True, 4, 3),
    # The tree knob set, the serial arm underneath: no relays, no
    # concurrent lowers -- the edgeless forest and the ordered loop.
    "serial": Arm(True, 2, 0, pipelined=False),
}


@contextmanager
def _patched(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


# -- the rack under test ------------------------------------------------------


class Rack:
    """One testbed, sharded or not, behind the same few names."""

    def __init__(self, arm: Arm):
        if arm.shards:
            sim = Simulator()
            configure(sim, arm.config)
            bed = sharded_testbed(
                N, shards=arm.shards, cores_per_host=2, seed=3, sim=sim
            )
            self.planes = bed.planes
            self.groups = bed.groups
            self.handle = bed.sharded
        else:
            bed = make_testbed(
                n_hosts=N, cores_per_host=2, hooks=("ingress",),
                with_agents=False, seed=3, config=arm.config,
            )
            self.planes = [bed.control]
            self.groups = [CodeFlowGroup(bed.codeflows)]
            self.handle = self.groups[0]
        self.bed = bed
        self.sim = bed.sim
        self.codeflows = list(bed.codeflows)
        self.sharded = bool(arm.shards)
        #: The last target of the first group: relayed in every relay
        #: arm (d=2: via position 5; d=4: via 2; K=3: via shard 0's 0).
        self.relayed = self.groups[0].codeflows[-1]

    def programs(self, version: int) -> list:
        return [
            make_stress_program(150, seed=version * 31 + i + 1, name=f"bo{i}")
            for i in range(N)
        ]

    def broadcast(self, version: int, **kwargs):
        return self.handle.broadcast(self.programs(version), "ingress", **kwargs)


# -- faults -------------------------------------------------------------------
#
# Every fault is injected below ``CodeFlowGroup`` -- at ``CodeFlow``,
# the control plane or the host -- so the same script drives any
# fan-out.  A leg is *relayed* exactly while its ``dispatch_cpu`` is
# borrowed from the parent's host.

#: The ``CodeFlow`` method every broadcast leg enters: ``stage_prog``
#: since legs stage outside the window, ``deploy_prog`` before -- so
#: ``tests.oracles --check-against`` drives either revision.
LEG_ENTRY = "stage_prog" if hasattr(CodeFlow, "stage_prog") else "deploy_prog"


def _failing_deploy(victim, error, relayed_only=False):
    def replacement(original):
        def entry(self, program, linked, hook_name, **kwargs):
            if self is victim and (self.dispatch_cpu is not None or not relayed_only):
                raise error
            report = yield from original(self, program, linked, hook_name, **kwargs)
            return report
        return entry
    return _patched(CodeFlow, LEG_ENTRY, replacement)


@contextmanager
def no_fault(rack):
    yield


def leg_fails(rack):
    return _failing_deploy(rack.codeflows[-1], DeployError("leg blew up"))


def root_fails(rack):
    return _failing_deploy(rack.codeflows[0], DeployError("root blew up"))


@contextmanager
def host_crashed(rack):
    # Index 11: a leaf of the deploy forest whose stage fails at its
    # fence, so it is no node of the lower forest either, and its raise
    # never went out: nothing lowers it, and no retry budget runs in the
    # window.
    host = rack.codeflows[11].sandbox.host
    host.crash()
    try:
        yield
    finally:
        host.recover()


def relay_broken(rack):
    return _failing_deploy(
        rack.relayed, HostUnreachable("relay link dead"), relayed_only=True
    )


@contextmanager
def stale_relayed(rack):
    """A successor bumps the fencing word between the bubble raise and
    the relayed deploy (write-through: the relay QP's fence read sees
    it); the word is put back afterwards so the next round is clean."""
    victim = rack.relayed
    cache = victim.sandbox.host.cache

    def replacement(original):
        def check_fence(self):
            if self is victim and self.dispatch_cpu is not None:
                cache.cpu_write(
                    victim.sandbox.epoch_addr, pack_qword(victim.epoch + 1)
                )
            return original(self)
        return check_fence

    with _patched(CodeFlow, "check_fence", replacement):
        yield
    cache.cpu_write(victim.sandbox.epoch_addr, pack_qword(victim.epoch))


def shard_forfeits(rack):
    """Shard 1 dies in Phase 0, before the vote barrier."""
    doomed = rack.planes[1]

    def replacement(original):
        def prepare_for(self, codeflow, program, **kwargs):
            if self is doomed:
                raise DeployError("shard1 cannot prepare")
            return original(self, codeflow, program, **kwargs)
        return prepare_for

    return _patched(RdxControlPlane, "prepare_for", replacement)


def plane_crash(rack):
    """Fail-stop a control plane (shard 1's, when sharded) as its first
    leg starts: none lowered.  An unsharded broadcast is interrupted as
    its incarnation dies; a sharded one keeps its other shards running."""
    doomed = rack.planes[1 if rack.sharded else 0]

    def replacement(original):
        def entry(self, program, linked, hook_name, **kwargs):
            if self.control_plane is doomed and not doomed.crashed:
                doomed.crash()
                if not rack.sharded:
                    rack.process.interrupt("control plane fail-stop")
            return original(self, program, linked, hook_name, **kwargs)
        return entry

    return _patched(CodeFlow, LEG_ENTRY, replacement)


class Scenario(NamedTuple):
    fault: object = no_fault
    kwargs: dict = {}
    arms: tuple = tuple(ARMS)
    #: Rounds the fault is armed in; the others run clean.
    faulty: tuple = (0, 2)


RELAY_ARMS = ("tree-d2", "tree-d4", "sharded-k3")
UNSHARDED = ("flat", "tree-d2", "tree-d4", "serial")

SCENARIOS = {
    "clean": Scenario(),
    "no-verify": Scenario(kwargs={"verify": False}),
    "ordered": Scenario(
        kwargs={"dependency_order": list(range(N))}, arms=UNSHARDED
    ),
    "no-bbu": Scenario(kwargs={"use_bbu": False}),
    "abort": Scenario(leg_fails),
    "root-partial": Scenario(root_fails, {"allow_partial": True}),
    "host-crashed": Scenario(host_crashed, {"allow_partial": True}),
    "relay-broken": Scenario(relay_broken, arms=RELAY_ARMS),
    "stale-relayed": Scenario(stale_relayed, arms=RELAY_ARMS),
    "shard-forfeits": Scenario(shard_forfeits, arms=("sharded-k3",)),
    # Clean, crash, then a call the dead incarnation refuses.
    "plane-crash": Scenario(plane_crash, faulty=(1,)),
}


# -- what a round pins --------------------------------------------------------


class Round(NamedTuple):
    raised: str  # exception class out of broadcast(), "" when it returned
    #: Run-length ``(code, count)`` over the targets in group order;
    #: code = ok|error_kind [/rb rolled back] [/det detached] [:mode].
    outcomes: tuple
    #: ``repr`` of bubble_window_us, total_us, abort_us and sim.now.
    times: tuple
    bubbles: str  # one digit per sandbox, 1 = still raised
    events: int  # cumulative sim.processed_events
    leak: tuple  # sums of (bytes_live, descriptor slots, deployed)
    #: ``rdx.broadcast.*`` / ``rdx.shard.*`` series that moved this
    #: round, as ``name{labels}+delta`` (histograms: observations).
    counters: tuple
    #: Journal records appended this round, lead plane first, one
    #: ``(txn, "phase phase ...")`` per run of one transaction's
    #: records (a record without a phase shows its type).
    journal: tuple


def _code(outcome) -> str:
    code = "ok" if outcome.ok else outcome.error_kind
    if outcome.rolled_back:
        code += "/rb"
    if outcome.detached:
        code += "/det"
    if outcome.report is not None:
        code += ":" + outcome.report.mode
    return code


def _run_length(codes) -> tuple:
    out = []
    for code in codes:
        if out and out[-1][0] == code:
            out[-1][1] += 1
        else:
            out.append([code, 1])
    return tuple((code, count) for code, count in out)


def _series(rack) -> dict:
    values = {}
    for metric in rack.bed.obs.registry:
        if metric.name.startswith(("rdx.broadcast.", "rdx.shard.")):
            labels = ",".join(f"{k}={v}" for k, v in metric.labels)
            value = metric.count if metric.kind == "histogram" else metric.value
            values[f"{metric.name}{{{labels}}}"] = int(value)
    return values


def _journal_since(rack, marks) -> tuple:
    runs = []
    for plane, mark in zip(rack.planes, marks):
        last = None
        for record in plane.journal.records[mark:]:
            phase = record.detail.get("phase", record.rec)
            if record.txn == last:
                runs[-1][1] += " " + phase
            else:
                runs.append([record.txn, phase])
                last = record.txn
    return tuple((txn, phases) for txn, phases in runs)


def _leak(rack) -> tuple:
    return (
        sum(cf.code_allocator.bytes_live for cf in rack.codeflows),
        sum(len(cf._metadata_used) for cf in rack.codeflows),
        sum(len(cf.deployed) for cf in rack.codeflows),
    )


def _observe(rack, series_before, marks) -> Round:
    raised, result = "", None
    try:
        result = rack.process.value
    except BroadcastAborted as err:
        raised, result = type(err).__name__, err.result
    except Exception as err:  # noqa: BLE001 -- the class name is the datum
        raised = type(err).__name__
    outcomes, times = (), ()
    if result is not None:
        outcomes = _run_length(_code(outcome) for outcome in result.outcomes)
        times = (result.bubble_window_us, result.total_us, result.abort_us)
    return Round(
        raised,
        outcomes,
        tuple(repr(value) for value in (*times, rack.sim.now)),
        "".join(str(int(cf.sandbox.bubble_active())) for cf in rack.codeflows),
        rack.sim.processed_events,
        _leak(rack),
        tuple(
            f"{name}+{value - series_before.get(name, 0)}"
            for name, value in sorted(_series(rack).items())
            if value != series_before.get(name, 0)
        ),
        _journal_since(rack, marks),
    )


def rack_rounds(rack: Rack, scenario: "Scenario"):
    """Run the scenario's rounds on ``rack``, one per ``next``."""
    for version in range(ROUNDS):
        series = _series(rack)
        marks = [len(plane.journal.records) for plane in rack.planes]
        fault = scenario.fault if version in scenario.faulty else no_fault
        with fault(rack):
            rack.process = rack.sim.spawn(
                rack.broadcast(version, **scenario.kwargs)
            )
            rack.sim.run()
        yield _observe(rack, series, marks)


def run_row(arm_name: str, scenario_name: str) -> list:
    rack = Rack(ARMS[arm_name])
    rounds = list(rack_rounds(rack, SCENARIOS[scenario_name]))
    checker.consume(rack.sim)  # epoch pokes and crashes are deliberate races
    return rounds


def rows() -> list:
    return [
        (arm, name)
        for arm in ARMS
        for name, scenario in SCENARIOS.items()
        if arm in scenario.arms
    ]


# fmt: off
ORACLE = {
    ('flat', 'clean'): [
        Round('', (('ok:full', 13),), ('24.607680000000073', '1292.3715999999997', '0.0', '51469.84976'), '0000000000000', 1512, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('24.607679999957327', '1292.3715999999185', '0.0', '102707.49976'), '0000000000000', 2582, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('24.607679999957327', '1292.3715999999404', '0.0', '153945.14976'), '0000000000000', 3652, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'no-verify'): [
        Round('', (('ok:full', 13),), ('24.607680000000073', '1289.3004', '0.0', '51469.84976'), '0000000000000', 1421, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('24.607679999957327', '1289.3003999999419', '0.0', '102707.49976'), '0000000000000', 2400, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('24.607679999957327', '1289.3003999999491', '0.0', '153945.14976'), '0000000000000', 3379, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'ordered'): [
        Round('', (('ok:full', 13),), ('48.919200000000046', '1316.6831199999997', '0.0', '51469.84976'), '0000000000000', 1485, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('48.91919999990205', '1316.6831199998633', '0.0', '102707.49976'), '0000000000000', 2528, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('48.91919999990205', '1316.683119999885', '0.0', '153945.14976'), '0000000000000', 3571, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('13.802560000000085', '1281.5626399999999', '0.0', '51469.84976'), '0000000000000', 1302, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.802559999981895', '1281.5626399999528', '0.0', '102707.49976'), '0000000000000', 2162, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.802559999981895', '1281.5626399999746', '0.0', '153945.14976'), '0000000000000', 3022, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'abort'): [
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('10.103839999999991', '1277.0467999999996', '0.0', '51469.84976'), '0000000000000', 1284, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('24.607679999957327', '1292.3728799999153', '0.0', '102707.49976'), '0000000000000', 2366, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('10.103839999981574', '1277.0467999999673', '0.0', '153945.14976'), '0000000000000', 3208, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('flat', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('18.955760000000055', '1285.9204799999995', '0.0', '51469.84976'), '0000000000000', 1454, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('24.607679999957327', '1292.3715999999185', '0.0', '102707.49976'), '0000000000000', 2524, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('18.955759999967995', '1285.920479999957', '0.0', '153945.14976'), '0000000000000', 3536, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('18.955760000000055', '1332.309967449537', '0.0', '51469.84976'), '0000000000000', 1485, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('24.607679999957327', '1292.3715999999185', '0.0', '102707.49976'), '0000000000000', 2555, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('18.955759999967995', '1332.5563517455157', '0.0', '153945.14976'), '0000000000000', 3598, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('24.607680000000073', '1292.3715999999997', '0.0', '51469.84976'), '0000000000000', 1512, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102707.49976',), '1111111111111', 2215, (39312, 26, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102707.49976',), '1111111111111', 2217, (39312, 26, 13),
              (),
              ()),
    ],
    ('tree-d2', 'clean'): [
        Round('', (('ok:full', 13),), ('18.955760000000055', '1312.5967999999996', '0.0', '51507.17712'), '0000000000000', 1520, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1288.5967999999484', '0.0', '102766.15448'), '0000000000000', 2585, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1288.5967999999702', '0.0', '154025.13184'), '0000000000000', 3650, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'no-verify'): [
        Round('', (('ok:full', 13),), ('18.955760000000055', '1304.1339199999995', '0.0', '51501.5352'), '0000000000000', 1429, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1280.1339199999566', '0.0', '102754.87064'), '0000000000000', 2403, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1280.1339199999784', '0.0', '154008.20608'), '0000000000000', 3377, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'ordered'): [
        Round('', (('ok:full', 13),), ('45.968560000000025', '1339.6095999999995', '0.0', '51507.17712'), '0000000000000', 1482, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('45.968559999906574', '1315.609599999887', '0.0', '102766.15448'), '0000000000000', 2509, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('45.968559999906574', '1315.6095999999088', '0.0', '154025.13184'), '0000000000000', 3536, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('10.851920000000064', '1304.4891199999997', '0.0', '51507.17456'), '0000000000000', 1299, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('10.851919999986421', '1280.4891199999765', '0.0', '102766.14936'), '0000000000000', 2143, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('10.851919999986421', '1280.4891199999984', '0.0', '154025.12416'), '0000000000000', 2987, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'abort'): [
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('10.103839999999991', '1303.7448799999995', '0.0', '51507.17712'), '0000000000000', 1280, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1312.5987199999436', '0.0', '102782.15576'), '0000000000000', 2370, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('10.103839999981574', '1279.7448799999838', '0.0', '154041.13312'), '0000000000000', 3196, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d2', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('18.955760000000055', '1312.5967999999996', '0.0', '51507.17712'), '0000000000000', 1461, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+2', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1296.5967999999484', '0.0', '102774.15448'), '0000000000000', 2527, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('18.955759999967995', '1288.5967999999702', '0.0', '154033.13184'), '0000000000000', 3534, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+2', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('18.955760000000055', '1428.8732518843722', '0.0', '51507.17712'), '0000000000000', 1520, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=TransientFault,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1296.5967999999484', '0.0', '102766.15448'), '0000000000000', 2586, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('18.955759999967995', '1414.1796843833872', '0.0', '154025.13184'), '0000000000000', 3652, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=TransientFault,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('18.955760000000055', '1312.5967999999996', '0.0', '51507.17712'), '0000000000000', 1520, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1288.5967999999484', '0.0', '102766.15448'), '0000000000000', 2585, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1288.5967999999702', '0.0', '154025.13184'), '0000000000000', 3650, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok', 12), ('StaleEpochError', 1)), ('10.103839999999991', '1303.7448799999995', '0.0', '51507.17712'), '0000000000000', 1291, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('18.955759999967995', '1312.5987199999436', '0.0', '102782.15576'), '0000000000000', 2381, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok', 12), ('StaleEpochError', 1)), ('10.103839999981574', '1279.7448799999838', '0.0', '154041.13312'), '0000000000000', 3218, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d2', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('18.955760000000055', '1312.5967999999996', '0.0', '51507.17712'), '0000000000000', 1520, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102766.15448',), '1011001111000', 2022, (30240, 20, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+7', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+5', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+6', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102766.15448',), '1011001111000', 2024, (30240, 20, 13),
              (),
              ()),
    ],
    ('tree-d4', 'clean'): [
        Round('', (('ok:full', 13),), ('13.303840000000037', '1291.2811999999997', '0.0', '51491.51344'), '0000000000000', 1520, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1275.2811999999685', '0.0', '102742.82712'), '0000000000000', 2585, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1275.281199999983', '0.0', '153994.1408'), '0000000000000', 3650, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'no-verify'): [
        Round('', (('ok:full', 13),), ('13.303840000000037', '1285.6392799999996', '0.0', '51488.69248'), '0000000000000', 1429, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1269.639279999974', '0.0', '102737.1852'), '0000000000000', 2403, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1269.6392799999885', '0.0', '153985.67792000002'), '0000000000000', 3377, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'ordered'): [
        Round('', (('ok:full', 13),), ('43.017920000000004', '1320.9952799999996', '0.0', '51491.51344'), '0000000000000', 1484, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('43.0179199999111', '1304.995279999901', '0.0', '102742.82712'), '0000000000000', 2513, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('43.0179199999111', '1304.9952799999155', '0.0', '153994.1408'), '0000000000000', 3542, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('7.9012800000000425', '1285.8760799999998', '0.0', '51491.51216'), '0000000000000', 1301, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('7.9012799999909475', '1269.8760799999873', '0.0', '102742.82456000001'), '0000000000000', 2147, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('7.9012799999909475', '1269.8760800000018', '0.0', '153994.13696000003'), '0000000000000', 2993, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'abort'): [
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('7.402559999999994', '1285.3799199999996', '0.0', '51491.51344'), '0000000000000', 1282, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1291.2824799999653', '0.0', '102750.82776'), '0000000000000', 2372, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('7.402559999987716', '1269.3799199999921', '0.0', '154002.14144'), '0000000000000', 3200, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d4', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('13.303840000000037', '1291.2811999999997', '0.0', '51488.51344'), '0000000000000', 1461, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1283.2811999999685', '0.0', '102744.82712'), '0000000000000', 2527, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('13.303839999978663', '1275.281199999983', '0.0', '153995.54207999998'), '0000000000000', 3534, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('13.303840000000037', '1404.5576518843723', '0.0', '51491.51344'), '0000000000000', 1520, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=TransientFault,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1283.2811999999685', '0.0', '102742.82712'), '0000000000000', 2586, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('13.303839999978663', '1397.8640843834', '0.0', '153994.1408'), '0000000000000', 3652, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=TransientFault,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('13.303840000000037', '1291.2811999999997', '0.0', '51491.51344'), '0000000000000', 1520, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1275.2811999999685', '0.0', '102742.82712'), '0000000000000', 2585, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1275.281199999983', '0.0', '153994.1408'), '0000000000000', 3650, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok', 12), ('StaleEpochError', 1)), ('7.402559999999994', '1285.3799199999996', '0.0', '51491.51344'), '0000000000000', 1293, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('13.303839999978663', '1291.2824799999653', '0.0', '102750.82776'), '0000000000000', 2383, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok', 12), ('StaleEpochError', 1)), ('7.402559999987716', '1269.3799199999921', '0.0', '154002.14144'), '0000000000000', 3222, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d4', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('13.303840000000037', '1291.2811999999997', '0.0', '51491.51344'), '0000000000000', 1520, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102739.82712',), '1000111100000', 1964, (27216, 18, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+5', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+5', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+8', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102739.82712',), '1000111100000', 1966, (27216, 18, 13),
              (),
              ()),
    ],
    ('sharded-k3', 'clean'): [
        Round('', (('ok:full', 13),), ('15.75511999999975', '173.15703999999965', '0.0', '50288.41216'), '0000000000000', 1740, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100336.62456'), '0000000000000', 3025, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '150384.83696'), '0000000000000', 4310, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'no-verify'): [
        Round('', (('ok:full', 13),), ('15.75511999999975', '173.15703999999965', '0.0', '50285.5912'), '0000000000000', 1649, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100330.98264'), '0000000000000', 2843, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '150376.37408'), '0000000000000', 4037, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('7.651279999999929', '160.3519199999999', '0.0', '50288.41216'), '0000000000000', 1395, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('7.6512799999909475', '160.35191999998642', '0.0', '100336.62456'), '0000000000000', 2335, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('7.6512799999909475', '160.35191999998642', '0.0', '150384.83696'), '0000000000000', 3275, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('69.51311999999928', '226.91503999999918', '124.21919999999886', '50288.41216'), '0000000000000', 1963, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100344.6252'), '0000000000000', 3273, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('56.01151999992726', '213.4134399999166', '91.81535999989137', '150392.8376'), '0000000000000', 4686, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('9.651919999999905', '167.0538399999998', '0.0', '50269.74976'), '0000000000000', 1661, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100325.96216'), '0000000000000', 2947, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('9.651919999989332', '167.05383999997866', '0.0', '150363.51215999998'), '0000000000000', 4154, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
    ],
    ('sharded-k3', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('15.75511999999975', '173.15703999999965', '0.0', '50288.41216'), '0000000000000', 1693, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100336.62456'), '0000000000000', 2979, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('15.755119999972521', '173.15703999996185', '0.0', '150384.83696'), '0000000000000', 4218, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
    ],
    ('sharded-k3', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('15.75511999999975', '173.15703999999965', '0.0', '50288.41216'), '0000000000000', 1740, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100336.62456'), '0000000000000', 3025, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '150384.83696'), '0000000000000', 4310, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok/det:full', 4), ('StaleEpochError', 1), ('ok/det:full', 8)), ('51.058319999999526', '208.46023999999943', '124.21919999999886', '50288.41216'), '0000000000000', 1972, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100344.6252'), '0000000000000', 3282, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 4), ('StaleEpochError', 1), ('ok/rb:full', 8)), ('40.25703999995312', '197.65895999994245', '91.81535999989137', '150392.8376'), '0000000000000', 4704, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'shard-forfeits'): [
        Round('DeployError', (), ('50288.41216',), '0000000000000', 1587, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('15.755119999972521', '173.15703999996185', '0.0', '100344.6252'), '0000000000000', 2894, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('DeployError', (), ('150392.8376',), '0000000000000', 3958, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('15.75511999999975', '173.15703999999965', '0.0', '50288.41216'), '0000000000000', 1740, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 6), ('DeployError', 3), ('ok/rb:full', 4)), ('56.01151999992726', '213.4134399999166', '76.51279999990948', '100336.62456'), '0000010000000', 2951, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+1', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+3', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND ABORT'), ('broadcast-1.beef0004', 'decided-abort ABORT'), ('broadcast-1.beef0002', 'INTEND'), ('', 'FLIGHT'), ('broadcast-1.beef0002', 'prepared bubbled deployed decided-abort'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('DeployError', (), ('150392.8376',), '0000010000000', 4015, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+2', 'rdx.broadcast.fanout{}+2', 'rdx.broadcast.latency_us{}+2', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+9', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('serial', 'clean'): [
        Round('', (('ok:full', 13),), ('54.560239999999794', '2634.8739199999995', '0.0', '52669.69976'), '0000000000000', 1822, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2634.8739199999036', '0.0', '105107.19976'), '0000000000000', 3202, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2634.873919999911', '0.0', '157544.69976'), '0000000000000', 4582, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'no-verify'): [
        Round('', (('ok:full', 13),), ('54.560239999999794', '2632.0529599999995', '0.0', '52669.69976'), '0000000000000', 1731, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2632.0529599999063', '0.0', '105107.19976'), '0000000000000', 3020, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2632.0529599999136', '0.0', '157544.69976'), '0000000000000', 4309, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'ordered'): [
        Round('', (('ok:full', 13),), ('54.560239999999794', '2634.8739199999995', '0.0', '52669.69976'), '0000000000000', 1822, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2634.8739199999036', '0.0', '105107.19976'), '0000000000000', 3202, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2634.873919999911', '0.0', '157544.69976'), '0000000000000', 4582, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('13.799999999999272', '2589.413039999999', '0.0', '52669.69976'), '0000000000000', 1301, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.799999999988358', '2589.4130399999776', '0.0', '105107.19976'), '0000000000000', 2160, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('13.799999999988358', '2589.413039999985', '0.0', '157544.69976'), '0000000000000', 3019, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'abort'): [
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('34.407680000000255', '2597.72136', '0.0', '52669.69976'), '0000000000000', 1461, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2634.8739199999036', '0.0', '105107.19976'), '0000000000000', 2973, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok', 12), ('DeployError', 1)), ('34.407679999945685', '2597.7213599999377', '0.0', '157544.69976'), '0000000000000', 3992, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('serial', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('51.85959999999977', '2615.2232799999997', '0.0', '52669.69976'), '0000000000000', 1727, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2634.8739199999036', '0.0', '105107.19976'), '0000000000000', 3107, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('51.859599999923375', '2615.2232799999183', '0.0', '157544.69976'), '0000000000000', 4392, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('51.85959999999977', '2615.1732799999995', '0.0', '52669.69976'), '0000000000000', 1754, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.56023999991885', '2634.8739199999036', '0.0', '105107.19976'), '0000000000000', 3134, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('51.859599999923375', '2615.1732799999154', '0.0', '157544.69976'), '0000000000000', 4446, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('54.560239999999794', '2634.8739199999995', '0.0', '52669.69976'), '0000000000000', 1822, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('105107.19976',), '1111111111111', 2641, (39312, 26, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('105107.19976',), '1111111111111', 2643, (39312, 26, 13),
              (),
              ()),
    ],
}
# fmt: on


def assert_matches_parent(arm: str, scenario: str, got: list) -> None:
    for version, (have, want) in enumerate(zip(got, ORACLE[arm, scenario])):
        assert have == want, f"{arm}/{scenario}/round {version}"
    assert len(got) == len(ORACLE[arm, scenario]) == ROUNDS


@pytest.mark.parametrize("arm,scenario", rows())
def test_three_rounds_match_parent(arm, scenario):
    assert_matches_parent(arm, scenario, run_row(arm, scenario))


def test_table_reaches_what_it_claims():
    """The table is only an oracle if its rows visit their paths."""
    def moved(arm, name, version, series):
        return any(
            entry.startswith(series)
            for entry in ORACLE[arm, name][version].counters
        )

    fallback = "rdx.broadcast.relay_fallback{reason="
    for arm in RELAY_ARMS:
        assert moved(arm, "root-partial", 0, fallback + "parent-failed")
        assert moved(arm, "relay-broken", 2, fallback + "HostUnreachable")
        assert not moved(arm, "stale-relayed", 0, fallback)
        stale = ORACLE[arm, "stale-relayed"][2]
        assert ("StaleEpochError", 1) in stale.outcomes
        # Its stage's fence precedes its raise: the stale plane neither
        # raises nor lowers the successor's bubble.
        assert stale.bubbles.count("1") == 0
        # The dead leg's raise never went out: nothing lowers it.
        assert not moved(arm, "host-crashed", 0, "rdx.broadcast.bubble_lower_failed")
        assert ORACLE[arm, "host-crashed"][0].bubbles == "0" * N
    assert not any(
        fallback in entry
        for arm in ("flat", "serial")
        for (row_arm, _), rounds in ORACLE.items() if row_arm == arm
        for round_ in rounds
        for entry in round_.counters
    )
    forfeit = ORACLE["sharded-k3", "shard-forfeits"][0]
    assert forfeit.raised == "DeployError"
    assert "rdx.shard.decisions{decision=abort}+1" in forfeit.counters
    for arm in UNSHARDED:
        crash, refused = ORACLE[arm, "plane-crash"][1:]
        assert crash.raised == "Interrupt" and refused.raised == "DeployError"
        assert "1" in crash.bubbles  # dead processes lower nothing
        assert refused.journal == ()
    # Every unsharded arm crashes as its stages start, before Phase 1
    # is journaled.
    for arm in ("flat", "tree-d2", "tree-d4", "serial"):
        crash = ORACLE[arm, "plane-crash"][1]
        assert crash.journal[0][1] == "INTEND prepared"  # dangling


# -- shape and schedule are timing --------------------------------------------

#: The columns a fan-out's shape or schedule may not move: what a round
#: did to the targets, the journal and the counters.  ``times`` and
#: ``events`` are the fan-out's own.
INVARIANT = ("raised", "outcomes", "bubbles", "leak", "journal", "counters")
_ITEM13 = (
    "ROADMAP item 13: a shard flips before it votes, so an abort "
    "detaches or rolls back legs an unsharded arm unstages"
)
_PROGRESS = (
    "walk progress at the crash instant; ROADMAP item 16 adds the "
    "reconcile step that makes it comparable"
)
_SHARD_CRASH = (
    "one shard's plane dies and the coordinator aborts the others; an "
    "unsharded plane's broadcast is interrupted"
)
#: ``(scenario, column) -> (arms exempt, cause)``: every known
#: divergence across arms, and why it is shape or which item removes it.
EXCEPTIONS = {
    ("abort", "outcomes"): (("sharded-k3",), _ITEM13),
    ("stale-relayed", "outcomes"): (("sharded-k3",), _ITEM13),
    ("plane-crash", "raised"): (("sharded-k3",), _SHARD_CRASH),
    ("plane-crash", "outcomes"): (("sharded-k3",), _SHARD_CRASH),
    ("plane-crash", "bubbles"): (tuple(ARMS), _PROGRESS),
    ("plane-crash", "leak"): (tuple(ARMS), _PROGRESS),
    ("plane-crash", "counters"): (tuple(ARMS), _PROGRESS),
}
#: Series a sharded broadcast observes once per shard's group.
_PER_GROUP = (
    "rdx.broadcast.count{", "rdx.broadcast.fanout{",
    "rdx.broadcast.latency_us{", "rdx.broadcast.bubble_window_us{",
    "rdx.broadcast.abort{", "rdx.broadcast.abort_us{",
    "rdx.broadcast.degraded{",
)


def _invariant(rounds: list, column: str, sharded: bool) -> tuple:
    """``column`` of each round with what is shape by construction
    taken out: relay fallbacks follow the relay topology, and -- when
    ``sharded`` is compared -- ``rdx.shard.*`` series and per-group
    observations follow the shards, whose per-shard labels sum to the
    aggregate ``_all``."""
    if column != "counters":
        return tuple(getattr(round_, column) for round_ in rounds)
    merged = []
    for round_ in rounds:
        series: dict = {}
        for entry in round_.counters:
            if "relay_fallback{" in entry or entry.startswith("rdx.shard."):
                continue
            if sharded and entry.startswith(_PER_GROUP):
                continue
            name, delta = entry.rsplit("+", 1)
            name = re.sub(r"target=shard\d+", "target=_all", name)
            series[name] = series.get(name, 0) + int(delta)
        merged.append(tuple(sorted(series.items())))
    return tuple(merged)


def test_every_arm_does_the_same_to_the_targets():
    """Read from the table, no simulation: every arm that runs a
    scenario agrees in every invariant column, round by round, but for
    the listed exceptions (the journal is compared across unsharded
    arms only: a sharded round adds its 2PC records)."""
    for scenario, spec in SCENARIOS.items():
        for column in INVARIANT:
            exempt = EXCEPTIONS.get((scenario, column), ((), ""))[0]
            arms = [
                arm for arm in spec.arms
                if arm not in exempt
                and (column != "journal" or not ARMS[arm].shards)
            ]
            for arm in arms[1:]:
                sharded = bool(ARMS[arm].shards or ARMS[arms[0]].shards)
                want = _invariant(ORACLE[arms[0], scenario], column, sharded)
                have = _invariant(ORACLE[arm, scenario], column, sharded)
                assert have == want, (
                    f"{scenario}/{column}: {arm} differs from {arms[0]}"
                )


def test_each_exception_is_a_divergence_the_table_shows():
    """No stale entry: every exempt column really differs for its arms."""
    for (scenario, column), (_, cause) in EXCEPTIONS.items():
        assert cause
        values = {
            _invariant(ORACLE[arm, scenario], column, sharded=True)
            for arm in SCENARIOS[scenario].arms
        }
        assert len(values) > 1, (scenario, column)


# -- the abort leak check -----------------------------------------------------

#: Code extent of one 150-instruction image on these targets.
EXTENT = 1512


def test_abort_returns_extents_slots_and_records():
    """Allocator bytes, descriptor slots and deployed records before
    vs after every aborted round of the table: all three return to
    their pre-broadcast values, whether the abort rolled a target back,
    detached it or unstaged a leg that never flipped (``ok``)."""
    checked = 0
    for rounds in ORACLE.values():
        for version, round_ in enumerate(rounds):
            if round_.raised != "BroadcastAborted":
                continue
            before = rounds[version - 1].leak if version else (0, 0, 0)
            undone = sum(
                count for code, count in round_.outcomes
                if code.startswith("ok")
            )
            assert undone > 0
            assert round_.leak == before
            checked += 1
    assert checked >= 16


def test_abort_over_a_deployed_group_returns_every_extent():
    """``CodeFlow.rollback`` frees the faulty image it drops
    from ``history``: five aborts over a deployed group leave each
    target with its one live extent (1512 B), not 1512 -> ... -> 9072.
    Every abort after the first deploys into the extent the previous
    one freed, so each of those writes is a reused-extent write -- and
    the rolled-back image still runs."""
    bed = make_testbed(
        n_hosts=3, cores_per_host=2, hooks=("ingress",),
        with_agents=False, seed=3, config=ARMS["flat"].config,
    )
    group = CodeFlowGroup(bed.codeflows)

    def programs(version):
        return [
            make_stress_program(150, seed=version * 31 + i + 1, name=f"lk{i}")
            for i in range(3)
        ]

    bed.sim.run_process(group.broadcast(programs(0), "ingress"))
    survivors = bed.codeflows[:2]
    live = [[cf.code_allocator.bytes_live for cf in survivors]]
    for version in range(1, 6):
        with leg_fails(bed), pytest.raises(BroadcastAborted):
            bed.sim.run_process(group.broadcast(programs(version), "ingress"))
        live.append([cf.code_allocator.bytes_live for cf in survivors])
        for cf in survivors:
            cf.sandbox.run_hook("ingress", bytes(256))
    assert live == [[EXTENT] * 2] * 6
    for index, cf in enumerate(survivors):
        record = cf.deployed[f"lk{index}"]
        assert record.history == [] and cf._retired == []
        assert len(cf._metadata_used) == 1
    # The same holds for a rollback with no broadcast involved.
    victim = bed.codeflows[2]
    assert victim.code_allocator.bytes_live == EXTENT
    bed.sim.run_process(bed.control.inject(victim, programs(6)[2], "ingress"))
    assert victim.code_allocator.bytes_live == 2 * EXTENT
    bed.sim.run_process(victim.rollback("lk2"))
    assert victim.deployed["lk2"].history == [] and victim._retired == []
    assert victim.code_allocator.bytes_live == EXTENT


# -- the plan, model-free -----------------------------------------------------


@given(st.integers(1, 12), st.integers(0, 300))
def test_every_non_root_has_one_parent_and_it_comes_first(degree, size):
    plan = _FanoutPlan(degree, {}, (), False)
    parent_of = {}
    for pos in range(size):
        for child in plan.children(pos, size):
            assert child not in parent_of
            assert pos < child < size
            parent_of[child] = pos
    # The children ranges partition exactly the non-roots.
    assert sorted(parent_of) == list(range(min(degree, size), size))
    if degree >= size:
        assert not parent_of


def _print_table() -> None:
    print("ORACLE = {")
    for arm, name in rows():
        print(f"    ({arm!r}, {name!r}): [")
        for round_ in run_row(arm, name):
            head = ", ".join(repr(value) for value in round_[:6])
            print(f"        Round({head},")
            print(f"              {round_.counters!r},")
            print(f"              {round_.journal!r}),")
        print("    ],")
    print("}")


if __name__ == "__main__":
    _print_table()

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

One deliberate departure from that commit, in the relay arms only: a
forest root no longer waits on an event that was succeeded before the
root was spawned, which was two calendar entries per root per walked
phase.  The table keeps the parent's ``events``; the test subtracts
:func:`root_visits` x 2 (:data:`ROOT_WAIT_EVENTS`).  Flat and serial
rows match the parent exactly, and on the parent itself every row
matches with ``ROOT_WAIT_EVENTS = 0``.

The ``leak`` column is the abort leak check: live code bytes, claimed
descriptor slots and deployed records, summed over the targets.  What
it found is pinned by :func:`test_abort_over_a_deployed_group_leaks_
one_extent_per_target` -- a known defect, not fixed here (ROADMAP
item 1).
"""

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
from repro.core.shard import partition
from repro.exp.scale import sharded_testbed
from repro.fuzz.determinism import deterministic_ids
from repro.hb import checker
from repro.mem.layout import pack_qword
from repro.params import DEFAULT, Config, configure
from repro.sim.core import Simulator

N = 13
ROUNDS = 3
#: Calendar entries the parent spent per forest root per walked phase
#: (the pre-succeeded ready event, and the root's wake-up from it).
ROOT_WAIT_EVENTS = 2


class Arm(NamedTuple):
    tree: bool
    degree: int
    shards: int  # 0: one unsharded CodeFlowGroup
    pipelined: bool = True

    @property
    def config(self) -> Config:
        return replace(
            DEFAULT, tree_broadcast=self.tree, tree_degree=self.degree,
            pipelined_deploy=self.pipelined, delta_deploy=False,
            obs=True, obs_target_labels=False,
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


def _failing_deploy(victim, error, relayed_only=False):
    def replacement(original):
        def deploy_prog(self, program, linked, hook_name, **kwargs):
            if self is victim and (self.dispatch_cpu is not None or not relayed_only):
                raise error
            report = yield from original(self, program, linked, hook_name, **kwargs)
            return report
        return deploy_prog
    return _patched(CodeFlow, "deploy_prog", replacement)


@contextmanager
def no_fault(rack):
    yield


def leg_fails(rack):
    return _failing_deploy(rack.codeflows[-1], DeployError("leg blew up"))


def root_fails(rack):
    return _failing_deploy(rack.codeflows[0], DeployError("root blew up"))


@contextmanager
def host_crashed(rack):
    # Index 11: a leaf of the deploy forest, but position 1 of the
    # (reversed) lower order -- a root whose children must not lower
    # through a dead host.
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
    leg starts to deploy: every bubble up, none lowered.  An unsharded
    broadcast is interrupted as its incarnation dies; a sharded one
    keeps its other shards running."""
    doomed = rack.planes[1 if rack.sharded else 0]

    def replacement(original):
        def deploy_prog(self, program, linked, hook_name, **kwargs):
            if self.control_plane is doomed and not doomed.crashed:
                doomed.crash()
                if not rack.sharded:
                    rack.process.interrupt("control plane fail-stop")
            return original(self, program, linked, hook_name, **kwargs)
        return deploy_prog

    return _patched(CodeFlow, "deploy_prog", replacement)


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
    with deterministic_ids():
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
        Round('', (('ok:full', 13),), ('54.794880000000376', '1313.3019200000003', '0.0', '51490.7068'), '0000000000000', 1549, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.7948799999067', '1313.3019199998744', '0.0', '102749.21383999997'), '0000000000000', 2656, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.794879999928526', '1313.3019199998962', '0.0', '154007.72087999992'), '0000000000000', 3763, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'no-verify'): [
        Round('', (('ok:full', 13),), ('45.33928000000037', '1303.8463200000003', '0.0', '51490.7068'), '0000000000000', 1458, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('45.339279999927385', '1303.846319999895', '0.0', '102749.21383999997'), '0000000000000', 2474, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('45.33927999994194', '1303.8463199999096', '0.0', '154007.72087999992'), '0000000000000', 3490, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'ordered'): [
        Round('', (('ok:full', 13),), ('79.10640000000035', '1337.6134400000003', '0.0', '51490.7068'), '0000000000000', 1522, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('79.10639999985142', '1337.613439999819', '0.0', '102749.21383999997'), '0000000000000', 2602, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('79.10639999987325', '1337.613439999841', '0.0', '154007.72087999992'), '0000000000000', 3682, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('46.001520000000255', '1283.6015200000002', '0.0', '51469.79976'), '0000000000000', 1206, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('46.0015199999325', '1283.6015199999383', '0.0', '102707.39976'), '0000000000000', 1970, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('46.00151999994705', '1283.6015199999529', '0.0', '153944.99976'), '0000000000000', 2734, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('194.6767200000029', '1453.1837600000028', '142.21152000000257', '51490.7068'), '0000000000000', 1910, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('54.7948799999067', '1313.3019199998744', '0.0', '102749.21383999997'), '0000000000000', 3017, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('129.86519999989832', '1388.372239999866', '77.39999999996508', '154007.72087999992'), '0000000000000', 4305, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('flat', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('52.46520000000032', '1310.9722400000003', '0.0', '51490.7068'), '0000000000000', 1514, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.7948799999067', '1313.3019199998744', '0.0', '102749.21383999997'), '0000000000000', 2621, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('52.46519999993325', '1310.972239999901', '0.0', '154007.72087999992'), '0000000000000', 3693, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('107.38144219172386', '1417.85278813391', '0.0', '51542.67110594219'), '0000000000000', 1531, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('54.7948799999067', '1313.3019199998744', '0.0', '102801.17814594216'), '0000000000000', 2638, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('106.75748371498776', '1415.0769158538897', '0.0', '154109.49757808106'), '0000000000000', 3727, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('54.794880000000376', '1313.3019200000003', '0.0', '51490.7068'), '0000000000000', 1549, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102749.21383999997',), '1111111111111', 2473, (39312, 13, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102749.21383999997',), '1111111111111', 2475, (39312, 13, 13),
              (),
              ()),
    ],
    ('tree-d2', 'clean'): [
        Round('', (('ok:full', 13),), ('78.84231999999997', '1337.34936', '0.0', '51535.63224'), '0000000000000', 1632, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('78.84231999994518', '1337.3493599999128', '0.0', '102839.06471999994'), '0000000000000', 2822, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('78.842319999967', '1337.3493599999347', '0.0', '154142.4971999999'), '0000000000000', 4012, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'no-verify'): [
        Round('', (('ok:full', 13),), ('70.37943999999993', '1328.88648', '0.0', '51529.99032'), '0000000000000', 1541, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('70.37943999995332', '1328.886479999921', '0.0', '102827.78087999995'), '0000000000000', 2640, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('70.37943999997515', '1328.8864799999428', '0.0', '154125.5714399999'), '0000000000000', 3739, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'ordered'): [
        Round('', (('ok:full', 13),), ('105.85511999999994', '1364.36216', '0.0', '51535.63224'), '0000000000000', 1590, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('105.85511999988375', '1364.3621599998514', '0.0', '102839.06471999994'), '0000000000000', 2738, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('105.85511999990558', '1364.3621599998733', '0.0', '154142.4971999999'), '0000000000000', 3886, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('71.43912', '1309.03912', '0.0', '51517.425839999996'), '0000000000000', 1199, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('71.43911999995908', '1309.039119999965', '0.0', '102802.65191999997'), '0000000000000', 1956, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('71.4391199999809', '1309.0391199999867', '0.0', '154087.87799999997'), '0000000000000', 2713, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('221.05384000000254', '1479.5608800000025', '142.21152000000257', '51535.63224'), '0000000000000', 1993, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('78.84231999994518', '1337.3493599999128', '0.0', '102839.06471999994'), '0000000000000', 3183, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('156.24231999993208', '1414.7493599998998', '77.39999999996508', '154142.4971999999'), '0000000000000', 4554, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d2', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('78.84231999999997', '1337.34936', '0.0', '51535.63224'), '0000000000000', 1584, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+2', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('78.84231999994518', '1337.3493599999128', '0.0', '102839.06471999994'), '0000000000000', 2774, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('78.842319999967', '1337.3493599999347', '0.0', '154142.4971999999'), '0000000000000', 3916, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+2', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('144.26432219172352', '1454.7356681339097', '0.0', '51587.596545942186'), '0000000000000', 1608, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('78.84231999994518', '1337.3493599999128', '0.0', '102891.02902594213'), '0000000000000', 2798, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('143.64036371499242', '1451.9597958538943', '0.0', '154244.27389808104'), '0000000000000', 3964, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('78.84231999999997', '1337.34936', '0.0', '51535.63224'), '0000000000000', 1632, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('78.84231999994518', '1337.3493599999128', '0.0', '102839.06471999994'), '0000000000000', 2822, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('78.842319999967', '1337.3493599999347', '0.0', '154142.4971999999'), '0000000000000', 4012, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('StaleEpochError', 1)), ('221.05384000000254', '1479.5608800000025', '142.21152000000257', '51535.63224'), '0000000000001', 1978, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('78.84231999994518', '1337.3493599999128', '0.0', '102839.06471999994'), '0000000000000', 3168, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('StaleEpochError', 1)), ('156.24231999993208', '1414.7493599998998', '77.39999999996508', '154142.4971999999'), '0000000000001', 4524, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d2', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('78.84231999999997', '1337.34936', '0.0', '51535.63224'), '0000000000000', 1632, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102839.06471999994',), '1111111111111', 2379, (30240, 13, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+7', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+5', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+6', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102839.06471999994',), '1111111111111', 2381, (30240, 13, 13),
              (),
              ()),
    ],
    ('tree-d4', 'clean'): [
        Round('', (('ok:full', 13),), ('56.55024000000003', '1315.05728', '0.0', '51515.3408'), '0000000000000', 1628, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('56.55023999995319', '1315.0572799999209', '0.0', '102798.48183999995'), '0000000000000', 2814, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('56.550239999967744', '1315.0572799999354', '0.0', '154081.62287999992'), '0000000000000', 4000, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'no-verify'): [
        Round('', (('ok:full', 13),), ('49.68607999999995', '1308.19312', '0.0', '51511.99824'), '0000000000000', 1537, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('49.68607999997039', '1308.193119999938', '0.0', '102791.79671999995'), '0000000000000', 2632, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('49.68607999998494', '1308.1931199999526', '0.0', '154071.59519999992'), '0000000000000', 3727, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'ordered'): [
        Round('', (('ok:full', 13),), ('86.26432', '1344.77136', '0.0', '51515.3408'), '0000000000000', 1584, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('86.26431999988563', '1344.7713599998533', '0.0', '102798.48183999995'), '0000000000000', 2726, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('86.26431999990018', '1344.7713599998679', '0.0', '154081.62287999992'), '0000000000000', 3868, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('51.84832000000006', '1289.44832', '0.0', '51497.1344'), '0000000000000', 1207, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('51.84831999996095', '1289.4483199999668', '0.0', '102762.06903999999'), '0000000000000', 1972, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('51.8483199999755', '1289.4483199999813', '0.0', '154027.00367999997'), '0000000000000', 2737, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('198.7617600000026', '1457.2688000000026', '142.21152000000257', '51515.3408'), '0000000000000', 1989, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('56.55023999995319', '1315.0572799999209', '0.0', '102798.48183999995'), '0000000000000', 3175, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('133.95023999993282', '1392.4572799999005', '77.39999999996508', '154081.62287999992'), '0000000000000', 4542, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d4', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('56.84960000000001', '1315.35664', '0.0', '51512.8192'), '0000000000000', 1566, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('56.55023999995319', '1315.0572799999209', '0.0', '102795.96023999996'), '0000000000000', 2752, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('56.84959999997227', '1315.35663999994', '0.0', '154076.5796799999'), '0000000000000', 3876, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('121.97224219172358', '1432.4435881339098', '0.0', '51564.48414594219'), '0000000000000', 1604, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('56.55023999995319', '1315.0572799999209', '0.0', '102847.62518594213'), '0000000000000', 2790, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('121.34828371499316', '1429.667715853895', '0.0', '154177.757658081'), '0000000000000', 3952, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('56.55024000000003', '1315.05728', '0.0', '51515.3408'), '0000000000000', 1628, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('56.55023999995319', '1315.0572799999209', '0.0', '102798.48183999995'), '0000000000000', 2814, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('56.550239999967744', '1315.0572799999354', '0.0', '154081.62287999992'), '0000000000000', 4000, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('StaleEpochError', 1)), ('198.7617600000026', '1457.2688000000026', '142.21152000000257', '51515.3408'), '0000000000001', 1974, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('56.55023999995319', '1315.0572799999209', '0.0', '102798.48183999995'), '0000000000000', 3160, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('StaleEpochError', 1)), ('133.95023999993282', '1392.4572799999005', '77.39999999996508', '154081.62287999992'), '0000000000001', 4512, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d4', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('56.55024000000003', '1315.05728', '0.0', '51515.3408'), '0000000000000', 1628, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102794.96023999996',), '1111111111111', 2295, (27216, 13, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+5', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+5', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+8', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102794.96023999996',), '1111111111111', 2297, (27216, 13, 13),
              (),
              ()),
    ],
    ('sharded-k3', 'clean'): [
        Round('', (('ok:full', 13),), ('55.72991999999982', '250.68183999999974', '0.0', '50451.666'), '0000000000000', 1564, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('55.72991999995429', '250.68183999994653', '0.0', '100671.13223999998'), '0000000000000', 2686, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('55.72991999996884', '250.68183999996108', '0.0', '150890.59847999996'), '0000000000000', 3808, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'no-verify'): [
        Round('', (('ok:full', 13),), ('49.38735999999983', '244.33927999999975', '0.0', '50448.1444'), '0000000000000', 1473, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('49.38735999996425', '244.3392799999565', '0.0', '100664.08903999998'), '0000000000000', 2504, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('49.3873599999788', '244.33927999997104', '0.0', '150880.03367999996'), '0000000000000', 3535, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('48.326719999999966', '235.87671999999998', '0.0', '50444.26344'), '0000000000000', 1185, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('48.32671999996819', '235.8767199999711', '0.0', '100656.32711999999'), '0000000000000', 1928, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('48.32671999998274', '235.87671999998565', '0.0', '150868.3908'), '0000000000000', 2671, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('114.98471999999992', '309.93663999999984', '142.21151999999967', '50451.666'), '0000000000000', 1925, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('55.72991999995429', '250.68183999994653', '0.0', '100671.13223999998'), '0000000000000', 3047, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('87.97991999995429', '282.93183999994653', '77.39999999996508', '150890.59847999996'), '0000000000000', 4350, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('31.91687999999982', '226.86879999999974', '0.0', '50429.85296'), '0000000000000', 1522, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
        Round('', (('ok:full', 13),), ('55.72991999995429', '250.68183999994653', '0.0', '100649.31919999997'), '0000000000000', 2644, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('31.916879999975208', '226.86879999996745', '0.0', '150846.97239999997'), '0000000000000', 3724, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
    ],
    ('sharded-k3', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('150.00446813390943', '344.95638813390934', '0.0', '50487.219825942186'), '0000000000000', 1546, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=shard2}+1', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
        Round('', (('ok:full', 13),), ('55.72991999995429', '250.68183999994653', '0.0', '100706.68606594217'), '0000000000000', 2668, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('147.2285958539287', '342.18051585392095', '0.0', '150959.55421808106'), '0000000000000', 3772, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=shard2}+1', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
    ],
    ('sharded-k3', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('55.72991999999982', '250.68183999999974', '0.0', '50451.666'), '0000000000000', 1564, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('55.72991999995429', '250.68183999994653', '0.0', '100671.13223999998'), '0000000000000', 2686, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('55.72991999996884', '250.68183999996108', '0.0', '150890.59847999996'), '0000000000000', 3808, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok/det:full', 4), ('StaleEpochError', 1), ('ok/det:full', 8)), ('79.32007999999956', '274.2719999999995', '142.21151999999915', '50451.666'), '0000100000000', 1910, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('55.72991999995429', '250.68183999994653', '0.0', '100671.13223999998'), '0000000000000', 3032, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 4), ('StaleEpochError', 1), ('ok/rb:full', 8)), ('58.416879999960656', '253.3687999999529', '77.39999999996508', '150890.59847999996'), '0000100000000', 4320, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'shard-forfeits'): [
        Round('DeployError', (), ('50451.666',), '0000000000000', 1529, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('55.72991999995429', '250.68183999994653', '0.0', '100671.13223999998'), '0000000000000', 2651, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('DeployError', (), ('150890.59847999996',), '0000000000000', 3603, (33264, 13, 13),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('55.72991999999982', '250.68183999999974', '0.0', '50451.666'), '0000000000000', 1564, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 6), ('DeployError', 3), ('ok/rb:full', 4)), ('87.97991999993974', '282.931839999932', '64.4999999999709', '100671.13223999998'), '0000011110000', 2695, (34776, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+1', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+3', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND ABORT'), ('broadcast-1.beef0004', 'decided-abort ABORT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'), ('broadcast-1.beef0002', 'deployed decided-abort'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('DeployError', (), ('150890.59847999996',), '0000011110000', 3638, (48384, 13, 13),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+2', 'rdx.broadcast.fanout{}+2', 'rdx.broadcast.latency_us{}+2', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+9', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('serial', 'clean'): [
        Round('', (('ok:full', 13),), ('209.02264000000014', '2667.42712', '0.0', '52690.60424'), '0000000000000', 1859, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('209.02263999991555', '2667.427119999884', '0.0', '105149.00871999997'), '0000000000000', 3276, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('209.02263999992283', '2667.427119999891', '0.0', '157607.41319999995'), '0000000000000', 4693, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'no-verify'): [
        Round('', (('ok:full', 13),), ('206.20168000000012', '2664.60616', '0.0', '52690.60424'), '0000000000000', 1768, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('206.20167999991827', '2664.6061599998866', '0.0', '105149.00871999997'), '0000000000000', 3094, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('206.20167999992555', '2664.606159999894', '0.0', '157607.41319999995'), '0000000000000', 4420, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'ordered'): [
        Round('', (('ok:full', 13),), ('209.02264000000014', '2667.42712', '0.0', '52690.60424'), '0000000000000', 1859, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('209.02263999991555', '2667.427119999884', '0.0', '105149.00871999997'), '0000000000000', 3276, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('209.02263999992283', '2667.427119999891', '0.0', '157607.41319999995'), '0000000000000', 4693, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('144.56304', '2582.0630399999995', '0.0', '52669.69976'), '0000000000000', 1247, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('144.56303999998636', '2582.0630399999864', '0.0', '105107.19976'), '0000000000000', 2052, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('144.56303999999363', '2582.0630399999936', '0.0', '157544.69976'), '0000000000000', 2857, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('336.93479999999727', '2795.339279999997', '142.2115199999971', '52690.60424'), '0000000000000', 2204, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('209.02263999991555', '2667.427119999884', '0.0', '105149.00871999997'), '0000000000000', 3621, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('272.1232799998834', '2730.5277599998517', '77.39999999996508', '157607.41319999995'), '0000000000000', 5203, (37800, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('serial', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('194.72328000000016', '2653.12776', '0.0', '52690.60424'), '0000000000000', 1808, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('209.02263999991555', '2667.427119999884', '0.0', '105149.00871999997'), '0000000000000', 3225, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('194.7232799999183', '2653.1277599998866', '0.0', '157607.41319999995'), '0000000000000', 4591, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('252.09400219172267', '2768.557649641259', '0.0', '52748.66340744954'), '0000000000000', 1809, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('209.02263999991555', '2667.427119999884', '0.0', '105207.0678874495'), '0000000000000', 3226, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('251.4700437149586', '2765.096876979951', '0.0', '157720.6947207145'), '0000000000000', 4593, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('serial', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('209.02264000000014', '2667.42712', '0.0', '52690.60424'), '0000000000000', 1859, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('105149.00871999997',), '1111111111111', 3030, (39312, 13, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('105149.00871999997',), '1111111111111', 3032, (39312, 13, 13),
              (),
              ()),
    ],
}
# fmt: on


def root_visits(arm_name: str, scenario_name: str, version: int) -> int:
    """Forest roots started by one round's relay walks: per group and
    walked phase, ``min(degree, positions)``.  This is the formula the
    one permitted movement follows, spelled from the scenario -- not a
    number read back from a run."""
    arm, scenario = ARMS[arm_name], SCENARIOS[scenario_name]
    if not (arm.tree and arm.pipelined):
        return 0
    armed = version in scenario.faulty
    visits = 0
    for group, members in enumerate(partition(range(N), arm.shards or 1)):
        deploy = lower = len(members)
        if scenario.kwargs.get("use_bbu") is False:
            lower = 0  # no bubbles to lower
        if "dependency_order" in scenario.kwargs:
            lower = 0  # the sequential loop, not a walk
        if armed and scenario_name == "host-crashed" and 11 in members:
            deploy -= 1  # its bubble never rose: not an active leg
        if armed and scenario_name == "stale-relayed" and group == 0:
            lower -= 1  # a fenced target's bubble is the successor's
        if armed and scenario_name == "shard-forfeits" and group == 1:
            deploy = lower = 0  # died in Phase 0
        if scenario_name == "plane-crash" and group == (1 if arm.shards else 0):
            if version == 1:
                lower = 0  # a dead incarnation lowers nothing
            if version == 2:
                deploy = lower = 0  # refused before Phase 0
        visits += sum(
            min(arm.degree, size) for size in (deploy, lower) if size > 1
        )
    return visits


def assert_matches_parent(arm: str, scenario: str, got: list) -> None:
    saved = 0
    for version, (have, want) in enumerate(zip(got, ORACLE[arm, scenario])):
        saved += ROOT_WAIT_EVENTS * root_visits(arm, scenario, version)
        want = want._replace(events=want.events - saved)
        assert have == want, f"{arm}/{scenario}/round {version}"
    assert len(got) == len(ORACLE[arm, scenario]) == ROUNDS


@pytest.mark.parametrize("arm,scenario", rows())
def test_three_rounds_match_parent(arm, scenario):
    assert_matches_parent(arm, scenario, run_row(arm, scenario))


def test_the_permitted_movement_is_the_issue_numbers():
    """-8 / -16 per clean broadcast at d=2 / d=4, half that without a
    walked lower phase, -48 for K=3 at N=13; nothing on flat or serial."""
    assert root_visits("tree-d2", "clean", 0) * ROOT_WAIT_EVENTS == 8
    assert root_visits("tree-d4", "clean", 0) * ROOT_WAIT_EVENTS == 16
    assert root_visits("tree-d2", "ordered", 0) * ROOT_WAIT_EVENTS == 4
    assert root_visits("tree-d4", "no-bbu", 0) * ROOT_WAIT_EVENTS == 8
    assert root_visits("sharded-k3", "clean", 0) * ROOT_WAIT_EVENTS == 48
    for name in SCENARIOS:
        for version in range(ROUNDS):
            assert root_visits("flat", name, version) == 0
            assert root_visits("serial", name, version) == 0


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
        assert stale.bubbles.count("1") == 1  # the successor's, left alone
        assert moved(arm, "host-crashed", 0, "rdx.broadcast.bubble_lower_failed")
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
        assert crash.bubbles == "1" * N  # dead processes lower nothing
        assert crash.journal[0][1] == "INTEND prepared bubbled"  # dangling
        assert refused.journal == ()


# -- the abort leak check -----------------------------------------------------

#: Code extent of one 150-instruction image on these targets.
EXTENT = 1512


def test_abort_returns_slots_and_records_but_leaks_rolled_back_extents():
    """Allocator bytes, descriptor slots and deployed records before
    vs after every aborted round of the table.

    Slots and records come back.  Bytes do not, when the abort rolls
    back rather than detaches -- KNOWN DEFECT, pinned not fixed (see
    the next test and ROADMAP item 1): one extent per rolled-back
    target stays allocated with nothing referring to it.
    """
    checked = 0
    for rounds in ORACLE.values():
        for version, round_ in enumerate(rounds):
            if round_.raised != "BroadcastAborted":
                continue
            before = rounds[version - 1].leak if version else (0, 0, 0)
            rolled_back = sum(
                count for code, count in round_.outcomes if "/rb" in code
            )
            detached = sum(
                count for code, count in round_.outcomes if "/det" in code
            )
            assert rolled_back + detached > 0
            assert round_.leak[1:] == before[1:]
            assert round_.leak[0] == before[0] + EXTENT * rolled_back
            checked += 1
    assert checked >= 16


def test_abort_over_a_deployed_group_leaks_one_extent_per_target():
    """KNOWN DEFECT (ROADMAP item 1), pinned so it cannot change
    unnoticed: ``RollbackManager.rollback`` drops the faulty image
    from ``history`` without putting it on ``CodeFlow._retired``, so
    every abort over an already-deployed group strands one extent per
    rolled-back target -- 1512 -> 3024 -> ... -> 9072 bytes after five
    aborts, referenced by nothing.  Freeing it makes the extent
    reusable, and re-use of an extent a sandbox has executed is the
    unflushed path item 1 closes: the fix belongs to that PR."""
    from repro.core.rollback import RollbackManager

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
    assert live == [[EXTENT * k] * 2 for k in range(1, 7)]  # should stay 1512
    for index, cf in enumerate(survivors):
        record = cf.deployed[f"lk{index}"]
        assert record.history == [] and cf._retired == []
        assert len(cf._metadata_used) == 1
    # The victim's leg never allocated, so it has nothing to leak...
    victim = bed.codeflows[2]
    assert victim.code_allocator.bytes_live == EXTENT
    # ...and the leak is rollback's own, with no broadcast involved.
    bed.sim.run_process(bed.control.inject(victim, programs(6)[2], "ingress"))
    assert victim.code_allocator.bytes_live == 2 * EXTENT
    bed.sim.run_process(RollbackManager(victim).rollback("lk2"))
    assert victim.deployed["lk2"].history == [] and victim._retired == []
    assert victim.code_allocator.bytes_live == 2 * EXTENT  # should be 1512


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

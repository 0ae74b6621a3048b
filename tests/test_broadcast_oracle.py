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

The table has since been regenerated by that command twice, for
changes that move rows on purpose:

* the single fan-out: a forest root no longer waits on an event that
  was succeeded before the root was spawned (two calendar entries per
  root per walked phase, relay arms only);
* the install as one chain and the rollback that frees what it drops:
  every pipelined row is faster and has fewer events (the commit CAS
  and the flush doorbells ride the deploy chain); the ``leak`` of every
  aborted round returns to its pre-broadcast value, and the serial
  ``abort`` rows pay a ``cc_event`` per leg that reuses a freed extent.

The ``leak`` column is the abort leak check: live code bytes, claimed
descriptor slots and deployed records, summed over the targets.
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
        Round('', (('ok:full', 13),), ('43.37855999999965', '1301.8855999999996', '0.0', '51490.7068'), '0000000000000', 1367, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('43.37855999992462', '1301.8855999998923', '0.0', '102749.21383999997'), '0000000000000', 2292, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('43.378559999968274', '1301.885599999936', '0.0', '154007.72087999992'), '0000000000000', 3217, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'no-verify'): [
        Round('', (('ok:full', 13),), ('40.09720000000016', '1298.6042400000001', '0.0', '51490.7068'), '0000000000000', 1276, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('40.09719999995286', '1298.6042399999205', '0.0', '102749.21383999997'), '0000000000000', 2110, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('40.09719999996014', '1298.6042399999278', '0.0', '154007.72087999992'), '0000000000000', 2944, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'ordered'): [
        Round('', (('ok:full', 13),), ('67.69007999999963', '1326.1971199999996', '0.0', '51490.7068'), '0000000000000', 1340, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('67.69007999986934', '1326.197119999837', '0.0', '102749.21383999997'), '0000000000000', 2238, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('67.690079999913', '1326.1971199998807', '0.0', '154007.72087999992'), '0000000000000', 3136, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('31.813679999999977', '1269.4136799999999', '0.0', '51469.79976'), '0000000000000', 1024, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('31.813679999984743', '1269.4136799999906', '0.0', '102707.39976'), '0000000000000', 1606, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('31.81367999999202', '1269.4136799999978', '0.0', '153944.99976'), '0000000000000', 2188, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('182.69800000000237', '1441.2050400000023', '142.21152000000257', '51490.7068'), '0000000000000', 1742, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('43.38175999991654', '1301.8887999998842', '0.0', '102749.21383999997'), '0000000000000', 2679, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('117.88647999992827', '1376.393519999896', '77.39999999996508', '154007.72087999992'), '0000000000000', 3799, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('flat', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('40.4864799999998', '1298.9935199999998', '0.0', '51490.7068'), '0000000000000', 1346, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('43.37855999992462', '1301.8855999998923', '0.0', '102749.21383999997'), '0000000000000', 2271, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('40.486479999963194', '1298.9935199999309', '0.0', '154007.72087999992'), '0000000000000', 3175, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('95.60464219172331', '1406.0759881339095', '0.0', '51542.67110594219'), '0000000000000', 1363, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('43.37855999992462', '1301.8855999998923', '0.0', '102801.17814594216'), '0000000000000', 2288, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('94.98068371500995', '1403.3001158539118', '0.0', '154109.49757808106'), '0000000000000', 3209, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('flat', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('43.37855999999965', '1301.8855999999996', '0.0', '51490.7068'), '0000000000000', 1367, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102749.21383999997',), '1111111111111', 2109, (39312, 13, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102749.21383999997',), '1111111111111', 2111, (39312, 13, 13),
              (),
              ()),
    ],
    ('tree-d2', 'clean'): [
        Round('', (('ok:full', 13),), ('72.24423999999976', '1330.7512799999997', '0.0', '51531.23352'), '0000000000000', 1442, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('72.24423999994906', '1330.7512799999167', '0.0', '102830.26727999994'), '0000000000000', 2442, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('72.24423999997089', '1330.7512799999386', '0.0', '154129.3010399999'), '0000000000000', 3442, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'no-verify'): [
        Round('', (('ok:full', 13),), ('63.78135999999972', '1322.2883999999997', '0.0', '51525.5916'), '0000000000000', 1351, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('63.7813599999572', '1322.2883999999249', '0.0', '102818.98343999995'), '0000000000000', 2260, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('63.78135999997903', '1322.2883999999467', '0.0', '154112.37527999992'), '0000000000000', 3169, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'ordered'): [
        Round('', (('ok:full', 13),), ('99.25703999999973', '1357.7640799999997', '0.0', '51531.23352'), '0000000000000', 1404, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('99.25703999988764', '1357.7640799998553', '0.0', '102830.26727999994'), '0000000000000', 2366, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('99.25703999990947', '1357.7640799998771', '0.0', '154129.3010399999'), '0000000000000', 3328, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('64.8410399999998', '1302.4410399999997', '0.0', '51513.02712'), '0000000000000', 1013, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('64.84103999996296', '1302.4410399999688', '0.0', '102793.85447999998'), '0000000000000', 1584, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('64.84103999998479', '1302.4410399999906', '0.0', '154074.68183999998'), '0000000000000', 2155, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('214.45576000000233', '1472.9628000000023', '142.21152000000257', '51531.23352'), '0000000000000', 1817, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('72.24615999994421', '1330.7531999999119', '0.0', '102830.26855999994'), '0000000000000', 2829, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('149.64423999993596', '1408.1512799999036', '77.39999999996508', '154129.3023199999'), '0000000000000', 4024, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d2', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('72.24423999999976', '1330.7512799999997', '0.0', '51531.23352'), '0000000000000', 1408, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+2', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('72.24423999994906', '1330.7512799999167', '0.0', '102830.26727999994'), '0000000000000', 2408, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('72.24423999997089', '1330.7512799999386', '0.0', '154129.3010399999'), '0000000000000', 3374, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+2', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('137.6662421917233', '1448.1375881339095', '0.0', '51583.19782594219'), '0000000000000', 1432, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('72.24423999994906', '1330.7512799999167', '0.0', '102882.23158594214'), '0000000000000', 2432, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('137.0422837149963', '1445.3617158538982', '0.0', '154231.07773808105'), '0000000000000', 3422, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('72.24423999999976', '1330.7512799999997', '0.0', '51531.23352'), '0000000000000', 1442, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('72.24423999994906', '1330.7512799999167', '0.0', '102830.26727999994'), '0000000000000', 2442, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('72.24423999997089', '1330.7512799999386', '0.0', '154129.3010399999'), '0000000000000', 3442, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d2', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('StaleEpochError', 1)), ('214.45576000000233', '1472.9628000000023', '142.21152000000257', '51531.23352'), '0000000000001', 1802, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('72.24615999994421', '1330.7531999999119', '0.0', '102830.26855999994'), '0000000000000', 2814, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('StaleEpochError', 1)), ('149.64423999993596', '1408.1512799999036', '77.39999999996508', '154129.3023199999'), '0000000000001', 3994, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d2', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('72.24423999999976', '1330.7512799999997', '0.0', '51531.23352'), '0000000000000', 1442, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102830.26727999994',), '1111111111111', 2087, (30240, 13, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+7', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+5', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+6', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102830.26727999994',), '1111111111111', 2089, (30240, 13, 13),
              (),
              ()),
    ],
    ('tree-d4', 'clean'): [
        Round('', (('ok:full', 13),), ('50.929279999999835', '1309.4363199999998', '0.0', '51512.61984'), '0000000000000', 1430, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('50.92927999996755', '1309.4363199999352', '0.0', '102793.03991999995'), '0000000000000', 2418, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('50.9292799999821', '1309.4363199999498', '0.0', '154073.4599999999'), '0000000000000', 3406, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'no-verify'): [
        Round('', (('ok:full', 13),), ('45.28735999999981', '1303.7943999999998', '0.0', '51509.79888'), '0000000000000', 1339, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('45.28735999997298', '1303.7943999999407', '0.0', '102787.39799999996'), '0000000000000', 2236, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('45.28735999998753', '1303.7943999999552', '0.0', '154064.99711999993'), '0000000000000', 3133, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'ordered'): [
        Round('', (('ok:full', 13),), ('80.6433599999998', '1339.1503999999998', '0.0', '51512.61984'), '0000000000000', 1394, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('80.64335999989999', '1339.1503999998677', '0.0', '102793.03991999995'), '0000000000000', 2346, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('80.64335999991454', '1339.1503999998822', '0.0', '154073.4599999999'), '0000000000000', 3298, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('46.22735999999986', '1283.8273599999998', '0.0', '51494.41344'), '0000000000000', 1017, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('46.227359999975306', '1283.8273599999811', '0.0', '102756.62711999999'), '0000000000000', 1592, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('46.22735999998986', '1283.8273599999957', '0.0', '154018.8408'), '0000000000000', 2167, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('193.1408000000024', '1451.6478400000024', '142.21152000000257', '51512.61984'), '0000000000000', 1805, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('50.930559999964316', '1309.437599999932', '0.0', '102793.04055999996'), '0000000000000', 2805, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('128.32927999994718', '1386.8363199999148', '77.39999999996508', '154073.46063999995'), '0000000000000', 3988, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d4', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('50.929279999999835', '1309.4363199999998', '0.0', '51509.61984'), '0000000000000', 1382, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('50.92927999996755', '1309.4363199999352', '0.0', '102790.03991999995'), '0000000000000', 2370, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('50.9292799999821', '1309.4363199999498', '0.0', '154067.4599999999'), '0000000000000', 3310, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('116.35128219172339', '1426.8226281339096', '0.0', '51561.584145942186'), '0000000000000', 1420, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('50.92927999996755', '1309.4363199999352', '0.0', '102842.00422594215'), '0000000000000', 2408, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('115.72732371500751', '1424.0467558539094', '0.0', '154169.23669808105'), '0000000000000', 3386, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=_all}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('50.929279999999835', '1309.4363199999998', '0.0', '51512.61984'), '0000000000000', 1430, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('50.92927999996755', '1309.4363199999352', '0.0', '102793.03991999995'), '0000000000000', 2418, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('', (('ok:full', 13),), ('50.9292799999821', '1309.4363199999498', '0.0', '154073.4599999999'), '0000000000000', 3406, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=_all}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed COMMIT'),)),
    ],
    ('tree-d4', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('StaleEpochError', 1)), ('193.1408000000024', '1451.6478400000024', '142.21152000000257', '51512.61984'), '0000000000001', 1790, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed ABORT'),)),
        Round('', (('ok:full', 13),), ('50.930559999964316', '1309.437599999932', '0.0', '102793.04055999996'), '0000000000000', 2790, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('StaleEpochError', 1)), ('128.32927999994718', '1386.8363199999148', '77.39999999996508', '154073.46063999995'), '0000000000001', 3958, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+1', 'rdx.broadcast.abort{}+1', 'rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+12', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0003', 'INTEND prepared bubbled deployed ABORT'),)),
    ],
    ('tree-d4', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('50.929279999999835', '1309.4363199999998', '0.0', '51512.61984'), '0000000000000', 1430, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0001', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('Interrupt', (), ('102790.03991999995',), '1111111111111', 2019, (27216, 13, 13),
              ('rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+5', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=_all}+5', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+8', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'))),
        Round('DeployError', (), ('102790.03991999995',), '1111111111111', 2021, (27216, 13, 13),
              (),
              ()),
    ],
    ('sharded-k3', 'clean'): [
        Round('', (('ok:full', 13),), ('50.63055999999983', '245.58247999999975', '0.0', '50448.766'), '0000000000000', 1334, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('50.630559999961406', '245.58247999995365', '0.0', '100665.33223999999'), '0000000000000', 2226, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('50.63055999997596', '245.5824799999682', '0.0', '150881.89847999997'), '0000000000000', 3118, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'no-verify'): [
        Round('', (('ok:full', 13),), ('44.988639999999805', '239.94055999999972', '0.0', '50445.94504'), '0000000000000', 1243, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('44.988639999966836', '239.94055999995908', '0.0', '100659.69031999998'), '0000000000000', 2044, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('44.98863999998139', '239.94055999997363', '0.0', '150873.43559999997'), '0000000000000', 2845, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'no-bbu'): [
        Round('', (('ok:full', 13),), ('43.227359999999976', '230.77736', '0.0', '50441.36344'), '0000000000000', 979, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('43.227359999975306', '230.77735999997822', '0.0', '100650.52711999998'), '0000000000000', 1516, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('43.22735999998986', '230.77735999999277', '0.0', '150859.69079999998'), '0000000000000', 2053, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'abort'): [
        Round('BroadcastAborted', (('ok/det:full', 12), ('DeployError', 1)), ('109.88535999999976', '304.8372799999997', '142.21151999999933', '50448.766'), '0000000000000', 1709, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('50.631839999958174', '245.58375999995042', '0.0', '100665.33287999997'), '0000000000000', 2613, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('82.8805599999614', '277.83247999995365', '77.39999999996508', '150881.89911999996'), '0000000000000', 3700, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'root-partial'): [
        Round('', (('DeployError', 1), ('ok:full', 12)), ('29.016879999999844', '223.96879999999976', '0.0', '50429.85296'), '0000000000000', 1306, (18144, 12, 12),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
        Round('', (('ok:full', 13),), ('50.630559999961406', '245.58247999995365', '0.0', '100646.41919999997'), '0000000000000', 2198, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('DeployError', 1), ('ok:full', 12)), ('29.01687999998103', '223.96879999997327', '0.0', '150844.07239999995'), '0000000000000', 3062, (55944, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=parent-failed,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
    ],
    ('sharded-k3', 'host-crashed'): [
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('147.10446813390956', '342.0563881339095', '0.0', '50487.219825942186'), '0000000000000', 1332, (18144, 12, 12),
              ('rdx.broadcast.bubble_lower_failed{target=shard2}+1', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
        Round('', (('ok:full', 13),), ('50.630559999961406', '245.58247999995365', '0.0', '100703.78606594217'), '0000000000000', 2224, (37800, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 11), ('TransientFault', 1), ('ok:full', 1)), ('144.32859585393453', '339.2805158539268', '0.0', '150956.6542180811'), '0000000000000', 3114, (55944, 13, 13),
              ('rdx.broadcast.bubble_lower_failed{target=shard2}+1', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.degraded{}+1', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+3', 'rdx.broadcast.target.latency_us{}+12', 'rdx.broadcast.target_failures{kind=TransientFault}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=degraded}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-degraded COMMIT'))),
    ],
    ('sharded-k3', 'relay-broken'): [
        Round('', (('ok:full', 13),), ('50.63055999999983', '245.58247999999975', '0.0', '50448.766'), '0000000000000', 1334, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('50.630559999961406', '245.58247999995365', '0.0', '100665.33223999999'), '0000000000000', 2226, (39312, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('', (('ok:full', 13),), ('50.63055999997596', '245.5824799999682', '0.0', '150881.89847999997'), '0000000000000', 3118, (58968, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.relay_fallback{reason=HostUnreachable,target=shard0}+1', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND COMMIT'), ('broadcast-1.beef0006', 'decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
    ],
    ('sharded-k3', 'stale-relayed'): [
        Round('BroadcastAborted', (('ok/det:full', 4), ('StaleEpochError', 1), ('ok/det:full', 8)), ('76.42007999999959', '271.3719999999995', '142.21151999999915', '50448.766'), '0000100000000', 1694, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('50.63119999995979', '245.58311999995203', '0.0', '100665.33287999997'), '0000000000000', 2598, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 4), ('StaleEpochError', 1), ('ok/rb:full', 8)), ('55.51687999996648', '250.46879999995872', '77.39999999996508', '150881.89911999996'), '0000100000000', 3670, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+4', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=StaleEpochError}+1', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'shard-forfeits'): [
        Round('DeployError', (), ('50448.766',), '0000000000000', 1371, (0, 0, 0),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0002', 'decided-abort ABORT'), ('broadcast-1.beef0001', 'INTEND ABORT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('', (('ok:full', 13),), ('50.631839999958174', '245.58375999995042', '0.0', '100665.33287999997'), '0000000000000', 2272, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND COMMIT'), ('broadcast-1.beef0004', 'decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('DeployError', (), ('150881.89911999996',), '0000000000000', 3066, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+2', 'rdx.broadcast.abort{}+2', 'rdx.broadcast.bubble_window_us{}+2', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+9', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0006', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0005', 'INTEND ABORT'), ('broadcast-1.beef0006', 'decided-abort ABORT'), ('broadcast-1.beef0003', 'INTEND ABORT'), ('broadcast-1.beef0003', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
    ],
    ('sharded-k3', 'plane-crash'): [
        Round('', (('ok:full', 13),), ('50.63055999999983', '245.58247999999975', '0.0', '50448.766'), '0000000000000', 1334, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+4', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=commit}+1'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0001', 'INTEND COMMIT'), ('broadcast-1.beef0002', 'decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'), ('broadcast-1.beef0001', 'INTEND prepared bubbled deployed decided-commit COMMIT'))),
        Round('BroadcastAborted', (('ok/rb:full', 6), ('DeployError', 3), ('ok/rb:full', 4)), ('82.88055999994685', '277.8324799999391', '64.4999999999709', '100665.33223999999'), '0000011110000', 2285, (19656, 13, 13),
              ('rdx.broadcast.abort_us{}+3', 'rdx.broadcast.abort{}+3', 'rdx.broadcast.bubble_window_us{}+3', 'rdx.broadcast.count{}+3', 'rdx.broadcast.fanout{}+3', 'rdx.broadcast.latency_us{}+3', 'rdx.broadcast.legs{mode=full,target=shard0}+5', 'rdx.broadcast.legs{mode=full,target=shard1}+1', 'rdx.broadcast.legs{mode=full,target=shard2}+4', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.target_failures{kind=DeployError}+3', 'rdx.broadcast.targets{}+13', 'rdx.shard.decisions{decision=abort}+1'),
              (('broadcast-1.beef0004', 'INTEND prepared bubbled deployed'), ('shard-commit-1.beef0003', 'INTEND ABORT'), ('broadcast-1.beef0004', 'decided-abort ABORT'), ('broadcast-1.beef0002', 'INTEND prepared bubbled'), ('', 'FLIGHT'), ('broadcast-1.beef0002', 'deployed decided-abort'), ('broadcast-1.beef0002', 'INTEND prepared bubbled deployed decided-abort ABORT'))),
        Round('DeployError', (), ('150881.89911999996',), '0000011110000', 3079, (19656, 13, 13),
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
        Round('', (('ok:full', 13),), ('209.02263999991555', '2667.427119999884', '0.0', '105149.00871999997'), '0000000000000', 3753, (19656, 13, 13),
              ('rdx.broadcast.bubble_window_us{}+1', 'rdx.broadcast.count{}+1', 'rdx.broadcast.fanout{}+1', 'rdx.broadcast.latency_us{}+1', 'rdx.broadcast.legs{mode=full,target=_all}+13', 'rdx.broadcast.target.latency_us{}+13', 'rdx.broadcast.targets{}+13'),
              (('broadcast-1.beef0002', 'INTEND prepared bubbled deployed COMMIT'),)),
        Round('BroadcastAborted', (('ok/rb:full', 12), ('DeployError', 1)), ('272.1232799998834', '2730.5277599998517', '77.39999999996508', '157607.41319999995'), '0000000000000', 5335, (19656, 13, 13),
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


def test_abort_returns_extents_slots_and_records():
    """Allocator bytes, descriptor slots and deployed records before
    vs after every aborted round of the table: all three return to
    their pre-broadcast values, whether the abort rolled a target back
    or detached it."""
    checked = 0
    for rounds in ORACLE.values():
        for version, round_ in enumerate(rounds):
            if round_.raised != "BroadcastAborted":
                continue
            before = rounds[version - 1].leak if version else (0, 0, 0)
            undone = sum(
                count for code, count in round_.outcomes
                if "/rb" in code or "/det" in code
            )
            assert undone > 0
            assert round_.leak == before
            checked += 1
    assert checked >= 16


def test_abort_over_a_deployed_group_returns_every_extent():
    """``RollbackManager.rollback`` frees the faulty image it drops
    from ``history``: five aborts over a deployed group leave each
    target with its one live extent (1512 B), not 1512 -> ... -> 9072.
    Every abort after the first deploys into the extent the previous
    one freed, so each of those writes is a reused-extent write -- and
    the rolled-back image still runs."""
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
    bed.sim.run_process(RollbackManager(victim).rollback("lk2"))
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

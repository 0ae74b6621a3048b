"""Target scenarios the schedule fuzzer explores.

Two families:

* **guarded** -- the real stack with its ordering guards *on* (single
  deploy, delta hotpatch, 8-way broadcast, crash-recovery).  Expected
  finding-free under every interleaving; a finding here is a live
  ordering bug (or a hole in the HB model) and fails the fuzz run.
  The decision tape also picks payload faults for these
  (:data:`~repro.core.faults.FUZZ_FAULT_MENU`), so the guards are
  exercised on perturbed *and* faulted schedules.
* **known-bad** -- guard-disabled reconstructions of the five
  ``exp/hb_schedules.py`` bug classes (sharded commit, fenceless stale
  writer, live rewrite, bubble sweep, sharded delta chunk).  Here the
  fuzzer must *rediscover* the race: concurrency is set up, but spawn
  order and op timing come from the tape, so some interleavings
  exhibit the bug and some do not.  Each carries the detector kind it
  must reproduce.

A scenario's ``drive(sim, seed, plan)`` builds its testbed on the
engine-provided simulator (the scenario's ``config``, the plan and a
bounded recorder already bound), runs the workload swallowing
*modeled* failures (``SandboxCrash`` from tape-chosen corruption,
``BroadcastAborted``), and returns.  The engine owns checking and
teardown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.core.faults import FaultInjector
from repro.errors import ReproError, SandboxCrash
from repro.exp.harness import make_testbed
from repro.hb import events as hb_events
from repro.params import DEFAULT, Config

if TYPE_CHECKING:  # pragma: no cover
    from repro.fuzz.plan import SchedulePlan
    from repro.sim.core import Simulator

#: Settle horizon after the driven workload: long enough for every
#: in-flight WR, retry loop, and deferred flush to land in the trace.
_SETTLE_US = 10_000.0


@dataclass(frozen=True)
class Scenario:
    """One fuzz target."""

    name: str
    drive: "Callable[[Simulator, int, SchedulePlan], None]"
    #: Detector kind this scenario must reproduce (None = guarded,
    #: expected clean).
    expect: Optional[str] = None
    #: The ``exp/hb_schedules.py`` class a known-bad scenario maps to.
    schedule_class: str = ""
    #: The arm the engine builds the simulator on (plus hb checking).
    config: Config = DEFAULT

    @property
    def known_bad(self) -> bool:
        return self.expect is not None


def _staggered(
    sim: "Simulator", plan: "SchedulePlan", gen: Generator, site: str,
    base_us: float,
) -> Generator:
    """Run ``gen`` after a tape-chosen start jitter -- the spawn-order
    choice point every racing pair hangs off."""
    delay = plan.delay_us(site, base_us)
    if delay:
        yield sim.timeout(delay)
    yield from gen


# -- guarded scenarios ------------------------------------------------------


def _drive_single_deploy(sim, seed: int, plan: "SchedulePlan") -> None:
    from repro.ebpf.stress import make_stress_program

    bed = make_testbed(n_hosts=1, cores_per_host=4, seed=seed, sim=sim)
    sandbox = bed.sandboxes[0]
    injector = FaultInjector(bed.codeflow, seed=seed)
    injector.attach()

    def drive():
        for version in range(2):
            injector.disarm()
            injector.arm_from_plan(plan, f"fault.kind:deploy{version}")
            program = make_stress_program(
                150, seed=seed * 17 + version, name="fzsingle"
            )
            try:
                yield from bed.control.inject(bed.codeflow, program, "ingress")
            except ReproError:
                continue  # tape-chosen fault rejected by the deploy path
            for burst in range(3):
                try:
                    sandbox.run_hook("ingress", bytes(256))
                except SandboxCrash:
                    sandbox.crashed = False  # corruption detected, by design
                yield sim.timeout(
                    2.0 + plan.delay_us(f"scn.exec-gap:{version}", 5.0)
                )

    try:
        sim.run_process(drive())
        sim.run(until=sim.now + _SETTLE_US)
    finally:
        injector.detach()


def _drive_delta_hotpatch(sim, seed: int, plan: "SchedulePlan") -> None:
    from repro.ebpf.stress import make_stress_program, make_stress_variant

    bed = make_testbed(n_hosts=1, cores_per_host=4, seed=seed, sim=sim)
    sandbox = bed.sandboxes[0]
    injector = FaultInjector(bed.codeflow, seed=seed)
    injector.attach()
    v1 = make_stress_program(400, seed=seed + 3, name="fzdelta")

    def drive():
        yield from bed.control.inject(bed.codeflow, v1, "ingress")
        for patch in range(2):
            injector.disarm()
            injector.arm_from_plan(plan, f"fault.kind:patch{patch}")
            try:
                yield from bed.control.inject(
                    bed.codeflow, make_stress_variant(v1, patch + 1), "ingress"
                )
            except ReproError:
                continue
            try:
                sandbox.run_hook("ingress", bytes(256))
            except SandboxCrash:
                sandbox.crashed = False
            yield sim.timeout(2.0 + plan.delay_us(f"scn.patch-gap:{patch}", 5.0))

    try:
        sim.run_process(drive())
        sim.run(until=sim.now + _SETTLE_US)
    finally:
        injector.detach()


def _drive_broadcast_8(sim, seed: int, plan: "SchedulePlan") -> None:
    from repro.core.broadcast import CodeFlowGroup
    from repro.ebpf.stress import make_stress_program
    from repro.errors import BroadcastAborted

    bed = make_testbed(n_hosts=8, cores_per_host=2, seed=seed, sim=sim)
    group = CodeFlowGroup(bed.codeflows)
    injector = FaultInjector(bed.codeflows[-1], seed=seed)
    injector.attach()
    injector.arm_from_plan(plan, "fault.kind:broadcast")
    rollout = make_stress_program(300, seed=seed + 7, name="fzcast")
    try:
        try:
            sim.run_process(
                group.broadcast([rollout] * len(bed.codeflows), "ingress")
            )
        except BroadcastAborted:
            pass  # tape-chosen fault aborted the round; rollback ran
        for sandbox in bed.sandboxes:
            try:
                sandbox.run_hook("ingress", bytes(256))
            except (SandboxCrash, ReproError):
                sandbox.crashed = False
        sim.run(until=sim.now + _SETTLE_US)
    finally:
        injector.detach()


def _drive_broadcast_64_tree(sim, seed: int, plan: "SchedulePlan") -> None:
    """Rack-scale guarded target: a 64-way *tree* broadcast -- relay
    fan-out, chained-doorbell raises, tree-relayed lowers -- with a
    tape-chosen payload fault on one leaf.  Relay legs swap a target's
    sync and dispatch CPU mid-flight and forward prelinked images over
    freshly wired QPs; an ordering hole in that handoff is exactly what
    the perturbed schedules exist to surface."""
    from repro.core.broadcast import CodeFlowGroup
    from repro.ebpf.stress import make_stress_program
    from repro.errors import BroadcastAborted

    # Lean rack: one core per host and no node agents, so 25 fuzz
    # iterations of a 64-target round stay within the CI budget.
    bed = make_testbed(
        n_hosts=64, cores_per_host=1, with_agents=False, seed=seed, sim=sim,
    )
    group = CodeFlowGroup(bed.codeflows)
    injector = FaultInjector(bed.codeflows[-1], seed=seed)
    injector.attach()
    injector.arm_from_plan(plan, "fault.kind:broadcast64")
    rollout = make_stress_program(300, seed=seed + 13, name="fztree")
    try:
        try:
            sim.run_process(
                group.broadcast([rollout] * len(bed.codeflows), "ingress")
            )
        except BroadcastAborted:
            pass  # tape-chosen fault aborted the round; rollback ran
        for sandbox in bed.sandboxes[::8]:
            try:
                sandbox.run_hook("ingress", bytes(256))
            except (SandboxCrash, ReproError):
                sandbox.crashed = False
        sim.run(until=sim.now + _SETTLE_US)
    finally:
        injector.detach()


def _drive_crash_recovery(sim, seed: int, plan: "SchedulePlan") -> None:
    from repro.core.broadcast import CodeFlowGroup
    from repro.core.reconcile import Reconciler, resume_control_plane
    from repro.ebpf.stress import make_stress_program
    from repro.errors import BroadcastAborted

    bed = make_testbed(n_hosts=3, cores_per_host=4, seed=seed, sim=sim)
    group = CodeFlowGroup(bed.codeflows)

    def programs(version: int):
        return [
            make_stress_program(
                400, seed=seed * 29 + version * 31 + i, name=f"fzcr{i}"
            )
            for i in range(len(bed.codeflows))
        ]

    try:
        sim.run_process(group.broadcast(programs(1), "ingress"))
    except BroadcastAborted:
        pass
    doomed = sim.spawn(
        group.broadcast(programs(2), "ingress"), name="fz-doomed-broadcast"
    )
    # Fault *timing* is a tape choice: the control plane dies anywhere
    # from mid-prepare to post-commit.
    sim.run(until=sim.now + 10.0 + plan.delay_us("scn.crash-at", 25.0))
    bed.control.crash()
    doomed.interrupt("control plane fail-stop")
    sim.run()
    plane, codeflows = sim.run_process(
        resume_control_plane(
            bed.cluster.control_host, bed.control.journal, bed.sandboxes,
            trace=bed.trace,
        )
    )
    sim.run_process(Reconciler(plane).reconcile_all(codeflows))
    sim.run(until=sim.now + _SETTLE_US)


# -- known-bad scenarios (guards off; the rediscovery targets) --------------


def _drive_sharded_commit(sim, seed: int, plan: "SchedulePlan") -> None:
    """``reordered-commit``: body and commit split across sibling QPs
    -- the completion fallacy, with spawn order fuzzed."""
    from repro.exp.hb_schedules import sibling_sync

    bed = make_testbed(n_hosts=1, cores_per_host=4, seed=seed, sim=sim)
    sandbox = bed.sandboxes[0]
    body_sync = bed.codeflow.sync
    commit_sync = sibling_sync(bed, sandbox)
    assert sandbox.ctx_manifest is not None
    code_addr = sandbox.ctx_manifest.code_addr
    hook_addr = sandbox.hook_table.slot_addr("ingress")
    body = bytes(range(256)) * 24  # two MTU chunks

    note = hb_events.txn_note(publishes=(code_addr, len(body)))
    sim.spawn(
        _staggered(
            sim, plan,
            body_sync.write(code_addr, body, note={"txn": note["txn"]}),
            "scn.body-start", 6.0,
        ),
        name="fz-body",
    )
    sim.spawn(
        _staggered(
            sim, plan, commit_sync.cas(hook_addr, 0, code_addr, note=note),
            "scn.commit-start", 6.0,
        ),
        name="fz-commit",
    )
    sim.run(until=sim.now + _SETTLE_US)


def _drive_fenceless_writer(sim, seed: int, plan: "SchedulePlan") -> None:
    """``fenceless-stale-writer``: a superseded plane keeps writing
    through the raw sync layer *while* its successor fences the
    target.  Genuinely schedule-dependent: the race only manifests on
    tapes that land the stale bytes after the fence CAS."""
    from repro.core.control_plane import RdxControlPlane

    bed = make_testbed(n_hosts=1, cores_per_host=4, seed=seed, sim=sim)
    sandbox = bed.sandboxes[0]
    stale_sync = bed.codeflow.sync  # epoch 1, about to be superseded

    def drive():
        successor = RdxControlPlane(
            bed.control.host, journal=bed.control.journal
        )
        sim.spawn(successor.create_codeflow(sandbox), name="fz-successor")
        # The stale plane keeps writing: a burst of metadata updates
        # with tape-chosen gaps.  Each write is one chance to land
        # after the fence; with every gap at 0 (the empty tape) the
        # whole burst completes before the fence CAS -- clean, which
        # keeps minimization sound for this genuinely
        # schedule-dependent race.
        assert sandbox.ctx_manifest is not None
        metadata_addr = sandbox.ctx_manifest.metadata_addr
        for k in range(4):
            gap = plan.delay_us(f"scn.stale-gap:{k}", 30.0)
            if gap:
                yield sim.timeout(gap)
            yield from stale_sync.write(
                metadata_addr + 128 * k, b"\xde\xad" * 64
            )

    sim.run_process(drive())
    sim.run(until=sim.now + _SETTLE_US)


def _drive_live_rewrite(sim, seed: int, plan: "SchedulePlan") -> None:
    """``torn-install``: rewrite a live image in place while the data
    path executes it; exec timing comes from the tape."""
    from repro.ebpf.stress import make_stress_program
    from repro.exp.hb_schedules import sibling_sync

    bed = make_testbed(n_hosts=1, cores_per_host=4, seed=seed, sim=sim)
    sandbox = bed.sandboxes[0]
    program = make_stress_program(400, seed=seed + 5, name="fztorn")
    sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
    record = bed.codeflow.deployed[program.name]
    writer = sibling_sync(bed, sandbox)
    junk = b"\xcc" * record.code_len
    sim.spawn(
        _staggered(
            sim, plan, writer.write(record.code_addr, junk),
            "scn.clobber-start", 3.0,
        ),
        name="fz-clobber",
    )
    sim.run(until=sim.now + 1.0 + plan.delay_us("scn.exec-at", 3.0))
    try:
        sandbox.run_hook("ingress", bytes(256))
    except SandboxCrash:
        sandbox.crashed = False  # decoding the torn image may crash
    sim.run(until=sim.now + _SETTLE_US)


def _drive_bubble_sweep(sim, seed: int, plan: "SchedulePlan") -> None:
    """``bubble-race``: two owners flip the bubble word concurrently
    (broadcast raising vs a reconciler-style sweep lowering)."""
    from repro.exp.hb_schedules import sibling_sync
    from repro.mem.layout import pack_qword

    bed = make_testbed(n_hosts=1, cores_per_host=4, seed=seed, sim=sim)
    sandbox = bed.sandboxes[0]
    raiser = bed.codeflow.sync
    lowerer = sibling_sync(bed, sandbox)
    bubble = sandbox.bubble_addr
    sim.spawn(
        _staggered(
            sim, plan, raiser.write(bubble, pack_qword(1)),
            "scn.raise-start", 4.0,
        ),
        name="fz-raise",
    )
    sim.spawn(
        _staggered(
            sim, plan, lowerer.write(bubble, pack_qword(0)),
            "scn.lower-start", 4.0,
        ),
        name="fz-lower",
    )
    sim.run(until=sim.now + _SETTLE_US)


def _drive_delta_shard(sim, seed: int, plan: "SchedulePlan") -> None:
    """``delta-chunk-reordered``: a delta dirty chunk on a sibling QP
    racing its commit CAS on the primary."""
    from repro.ebpf.stress import make_stress_program, make_stress_variant
    from repro.exp.hb_schedules import sibling_sync

    bed = make_testbed(n_hosts=1, cores_per_host=4, seed=seed, sim=sim)
    sandbox = bed.sandboxes[0]
    v1 = make_stress_program(400, seed=seed + 3, name="fzshard")
    v2 = make_stress_variant(v1, 1)
    sim.run_process(bed.control.inject(bed.codeflow, v1, "ingress"))
    sim.run_process(bed.control.inject(bed.codeflow, v2, "ingress"))
    record = bed.codeflow.deployed["fzshard"]
    assert record.baseline_addr is not None
    hook_addr = sandbox.hook_table.slot_addr("ingress")

    note = hb_events.txn_note(publishes=(record.baseline_addr, record.code_len))
    chunk_sync = sibling_sync(bed, sandbox)
    sim.spawn(
        _staggered(
            sim, plan,
            chunk_sync.write(
                record.baseline_addr + 256, b"\xd7" * 64,
                note={"txn": note["txn"]},
            ),
            "scn.chunk-start", 6.0,
        ),
        name="fz-delta-chunk",
    )
    sim.spawn(
        _staggered(
            sim, plan,
            bed.codeflow.sync.cas(
                hook_addr, record.code_addr, record.baseline_addr,
                note=note,
            ),
            "scn.delta-commit-start", 6.0,
        ),
        name="fz-delta-commit",
    )
    sim.run(until=sim.now + _SETTLE_US)


_ALL = (
    Scenario("single-deploy", _drive_single_deploy),
    Scenario(
        "delta-hotpatch", _drive_delta_hotpatch,
        config=replace(DEFAULT, delta_deploy=True),
    ),
    Scenario("broadcast-8", _drive_broadcast_8),
    Scenario(
        "broadcast-64-tree", _drive_broadcast_64_tree,
        config=replace(DEFAULT, tree_broadcast=True, tree_degree=4),
    ),
    Scenario("crash-recovery", _drive_crash_recovery),
    Scenario(
        "sharded-commit", _drive_sharded_commit,
        expect="commit-before-body", schedule_class="reordered-commit",
    ),
    Scenario(
        "fenceless-writer", _drive_fenceless_writer,
        expect="stale-epoch-write", schedule_class="fenceless-stale-writer",
    ),
    Scenario(
        "live-rewrite", _drive_live_rewrite,
        expect="torn-exec", schedule_class="torn-install",
    ),
    Scenario(
        "bubble-sweep", _drive_bubble_sweep,
        expect="bubble-race", schedule_class="bubble-race",
    ),
    Scenario(
        "delta-shard", _drive_delta_shard,
        expect="commit-before-body", schedule_class="delta-chunk-reordered",
        config=replace(DEFAULT, delta_deploy=True),
    ),
)

SCENARIOS: dict[str, Scenario] = {s.name: s for s in _ALL}
GUARDED = tuple(s.name for s in _ALL if not s.known_bad)
KNOWN_BAD = tuple(s.name for s in _ALL if s.known_bad)


def get(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ReproError(
            f"unknown fuzz scenario {name!r} "
            f"(have: {', '.join(sorted(SCENARIOS))})"
        ) from None

"""Known-bad (and known-clean) schedules for the hb race checker.

Each schedule builds a fresh testbed, drives a specific interleaving,
and runs :func:`repro.hb.checker.consume` over the recorded trace.
The known-bad schedules reconstruct the bug classes the ordering
model exists to catch -- a detector that stays silent on its own bug
class is dead, and :func:`run_hb_schedules` reports that as failure
so CI can gate on it:

* ``reordered-commit`` -- the serial deploy ablation with the commit
  CAS posted on a sibling QP concurrently with the body write: the
  completion-fallacy bug (a completion on one QP says nothing about
  another QP's posts).  A sharded-SQ deploy engine that splits body
  and commit across QPs for throughput ships exactly this race.
* ``fenceless-stale-writer`` -- a superseded control plane keeps
  writing through the raw sync layer after its successor raised the
  target's epoch, skipping ``check_fence``.
* ``torn-install`` -- a writer rewrites a live image range while the
  data path executes it; no bubble, no fresh pages, no flush edge.
* ``bubble-race`` -- two owners flip the bubble word concurrently
  (broadcast raising vs a reconciler-style sweep lowering).
* ``delta-chunk-reordered`` -- a delta hotpatch whose dirty chunk
  ships on a sibling QP while the commit CAS goes out on the primary:
  the sharded-SQ variant of the completion fallacy, where the commit
  can land before the chunk it publishes.
* ``delta-stale-baseline`` -- after a warm reboot and re-provision, a
  stale delta engine patches the extent it recorded as the dormant
  baseline -- which the fresh deploy now runs live.
* ``relay-commit-before-body`` -- the tree-broadcast variant of the
  completion fallacy: a relay forwards the image body over its own QP
  while the control plane, trusting the handoff alone, posts the
  commit CAS directly -- without the relay's status report there is
  no edge ordering the commit after the forwarded chunks, so the hook
  can flip onto bytes still in flight.
* ``commit-chained-first`` -- one install chain on one QP, with the
  fenced commit CAS chained *ahead of* the body it publishes: the
  fence orders a WR after the WRs before it in the chain, and there
  are none, so the hook flips before the image lands.
* ``clean-deploy`` -- the control: inject, redeploy, and data-path
  executions through the real stack must produce zero findings.

Run directly for the CI gate::

    PYTHONPATH=src python -m repro.exp.hb_schedules
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generator, Optional

from repro import params
from repro.core.control_plane import _pd_of
from repro.core.sync import RemoteSync
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import SandboxCrash
from repro.exp.harness import Testbed, format_table, make_testbed
from repro.hb import checker
from repro.hb import events as hb_events
from repro.mem.layout import pack_qword
from repro.rdma.qp import WorkRequest, WrOpcode
from repro.rdma.verbs import connect_qps, open_device
from repro.sandbox.sandbox import Sandbox


@dataclass
class ScheduleResult:
    """One schedule's verdict."""

    name: str
    #: Finding kind this schedule must produce (None = must be clean).
    expect: Optional[str]
    kinds: list[str] = field(default_factory=list)
    events: int = 0
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.expect is None:
            return not self.findings
        return self.expect in self.kinds

    @property
    def detail(self) -> str:
        if not self.findings:
            return "clean"
        return ",".join(sorted(set(self.kinds)))


@dataclass
class HbSchedulesResult:
    seed: int
    schedules: list[ScheduleResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.schedules) and all(s.ok for s in self.schedules)


def sibling_sync(bed: Testbed, sandbox: Sandbox) -> RemoteSync:
    """A sibling QP to ``sandbox`` from the control host.

    Same initiator, same target, different send queue -- the minimal
    setup where "the other op's completion came back" stops being an
    ordering fact.
    """
    target_ctx = open_device(sandbox.host)
    target_qp = target_ctx.create_qp(_pd_of(sandbox), target_ctx.create_cq())
    local_ctx = open_device(bed.control.host)
    local_qp = local_ctx.create_qp(local_ctx.alloc_pd(), local_ctx.create_cq())
    connect_qps(local_qp, target_qp)
    assert sandbox.ctx_manifest is not None
    return RemoteSync(bed.sim, local_qp, sandbox.ctx_manifest.rkey, sandbox)


def _bed(seed: int, n_hosts: int = 1, **arm) -> Testbed:
    """A schedule's testbed: the default arm (plus ``arm``) with hb
    checking on."""
    return make_testbed(
        n_hosts=n_hosts, cores_per_host=4, seed=seed,
        config=replace(params.DEFAULT, hb_check=True, **arm),
    )


def _finish(bed: Testbed, result: ScheduleResult) -> ScheduleResult:
    report = checker.consume(bed.sim)
    result.events = report.events
    result.findings = report.findings
    result.kinds = [f.kind for f in report.findings]
    return result


def _schedule_clean_deploy(seed: int) -> ScheduleResult:
    bed = _bed(seed)
    sim = bed.sim
    sandbox = bed.sandboxes[0]

    def drive():
        for version in range(2):
            program = make_stress_program(
                150, seed=seed * 17 + version, name="hbclean"
            )
            yield from bed.control.inject(bed.codeflow, program, "ingress")
            for _ in range(3):
                sandbox.run_hook("ingress", bytes(256))
                yield sim.timeout(5.0)

    sim.run_process(drive())
    return _finish(bed, ScheduleResult("clean-deploy", expect=None))


def _schedule_reordered_commit(seed: int) -> ScheduleResult:
    bed = _bed(seed)
    sim = bed.sim
    sandbox = bed.sandboxes[0]
    body_sync = bed.codeflow.sync
    commit_sync = sibling_sync(bed, sandbox)
    assert sandbox.ctx_manifest is not None
    code_addr = sandbox.ctx_manifest.code_addr
    hook_addr = sandbox.hook_table.slot_addr("ingress")
    body = bytes(range(256)) * 24  # ~6KB: lands in two MTU chunks

    note = hb_events.txn_note(sim, publishes=(code_addr, len(body)))
    sim.spawn(
        body_sync.write(code_addr, body, note={"txn": note["txn"]}),
        name="hb-body",
    )
    sim.spawn(
        commit_sync.cas(hook_addr, 0, code_addr, note=note), name="hb-commit"
    )
    sim.run(until=sim.now + 10_000)
    return _finish(
        bed, ScheduleResult("reordered-commit", expect="commit-before-body")
    )


def _schedule_fenceless_stale_writer(seed: int) -> ScheduleResult:
    from repro.core.control_plane import RdxControlPlane

    bed = _bed(seed)
    sim = bed.sim
    sandbox = bed.sandboxes[0]
    stale_sync = bed.codeflow.sync  # epoch 1, about to be superseded

    def drive():
        # A successor incarnation claims the next epoch from the same
        # journal and fences the target.
        successor = RdxControlPlane(
            bed.control.host, journal=bed.control.journal
        )
        yield from successor.create_codeflow(sandbox)
        # The fenced-out plane keeps writing through the raw sync
        # layer -- no check_fence, the bug this detector exists for.
        assert sandbox.ctx_manifest is not None
        yield from stale_sync.write(
            sandbox.ctx_manifest.metadata_addr, b"\xde\xad" * 64
        )

    sim.run_process(drive())
    return _finish(
        bed,
        ScheduleResult("fenceless-stale-writer", expect="stale-epoch-write"),
    )


def _schedule_torn_install(seed: int) -> ScheduleResult:
    bed = _bed(seed)
    sim = bed.sim
    sandbox = bed.sandboxes[0]
    program = make_stress_program(400, seed=seed + 5, name="hbtorn")
    sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
    record = bed.codeflow.deployed[program.name]
    writer = sibling_sync(bed, sandbox)
    junk = b"\xcc" * record.code_len
    # Overwrite the live image in place -- no fresh pages, no pointer
    # flip -- while the data path executes it.
    sim.spawn(writer.write(record.code_addr, junk), name="hb-clobber")
    sim.run(until=sim.now + 2.5)  # mid-landing: first chunk is down
    try:
        sandbox.run_hook("ingress", bytes(256))
    except SandboxCrash:
        pass  # decoding the torn image may well crash -- that's the bug
    sandbox.crashed = False
    sim.run(until=sim.now + 10_000)
    return _finish(bed, ScheduleResult("torn-install", expect="torn-exec"))


def _schedule_bubble_race(seed: int) -> ScheduleResult:
    bed = _bed(seed)
    sim = bed.sim
    sandbox = bed.sandboxes[0]
    raiser = bed.codeflow.sync
    lowerer = sibling_sync(bed, sandbox)
    bubble = sandbox.bubble_addr
    sim.spawn(raiser.write(bubble, pack_qword(1)), name="hb-raise")
    sim.spawn(lowerer.write(bubble, pack_qword(0)), name="hb-lower")
    sim.run(until=sim.now + 10_000)
    return _finish(bed, ScheduleResult("bubble-race", expect="bubble-race"))


def _schedule_delta_chunk_reordered(seed: int) -> ScheduleResult:
    """A delta chunk posted on a sibling QP, racing its commit CAS.

    v1/v2 deploy through the real stack (registering v1's extent as
    the delta baseline), then a broken sharded-SQ delta engine ships
    the dirty span on a second QP while the commit CAS goes out on the
    primary: the CAS's completion says nothing about the sibling QP's
    chunk, so the published extent can go live half-patched.
    """
    bed = _bed(seed, delta_deploy=True)
    sim = bed.sim
    sandbox = bed.sandboxes[0]
    v1 = make_stress_program(400, seed=seed + 3, name="hbdelta")
    v2 = make_stress_variant(v1, 1)
    sim.run_process(bed.control.inject(bed.codeflow, v1, "ingress"))
    sim.run_process(bed.control.inject(bed.codeflow, v2, "ingress"))
    record = bed.codeflow.deployed["hbdelta"]
    assert record.baseline_addr is not None
    hook_addr = sandbox.hook_table.slot_addr("ingress")

    note = hb_events.txn_note(sim, publishes=(record.baseline_addr, record.code_len))
    chunk_sync = sibling_sync(bed, sandbox)
    sim.spawn(
        chunk_sync.write(
            record.baseline_addr + 256, b"\xd7" * 64,
            note={"txn": note["txn"]},
        ),
        name="hb-delta-chunk",
    )
    sim.spawn(
        bed.codeflow.sync.cas(
            hook_addr, record.code_addr, record.baseline_addr, note=note
        ),
        name="hb-delta-commit",
    )
    sim.run(until=sim.now + 10_000)
    return _finish(
        bed, ScheduleResult("delta-chunk-reordered", expect="commit-before-body")
    )


def _schedule_delta_stale_baseline(seed: int) -> ScheduleResult:
    """Delta chunks against a baseline that stopped existing.

    The engine records (baseline addr, baseline bytes), then the
    target warm-reboots and is re-provisioned: the wiped allocator
    hands the *fresh live image* the same extent the stale engine
    knows as the dormant baseline.  Its precomputed dirty span then
    lands in code the data path is executing.
    """
    bed = _bed(seed, delta_deploy=True)
    sim = bed.sim
    sandbox = bed.sandboxes[0]
    v1 = make_stress_program(400, seed=seed + 9, name="hbstale")
    v2 = make_stress_variant(v1, 1)
    sim.run_process(bed.control.inject(bed.codeflow, v1, "ingress"))
    sim.run_process(bed.control.inject(bed.codeflow, v2, "ingress"))
    record = bed.codeflow.deployed["hbstale"]
    stale_base = record.baseline_addr
    assert stale_base is not None

    sandbox.warm_reboot()
    bed.codeflow.reset_after_reboot()
    fresh = make_stress_program(400, seed=seed + 23, name="hbfresh")
    sim.run_process(bed.control.inject(bed.codeflow, fresh, "ingress"))
    # Address reuse is the point: the reset allocator put the
    # fresh live image where the stale baseline used to be.
    assert bed.codeflow.deployed["hbfresh"].code_addr == stale_base

    writer = sibling_sync(bed, sandbox)
    sim.spawn(
        writer.write(stale_base + 256, b"\xd7" * 64),
        name="hb-stale-delta",
    )
    sim.run(until=sim.now + 2.5)  # mid-landing
    try:
        sandbox.run_hook("ingress", bytes(256))
    except SandboxCrash:
        pass  # decoding the half-patched image may crash -- the bug
    sandbox.crashed = False
    sim.run(until=sim.now + 10_000)
    return _finish(bed, ScheduleResult("delta-stale-baseline", expect="torn-exec"))


def relay_sync(bed: Testbed, parent: Sandbox, child: Sandbox) -> RemoteSync:
    """A tree-relay QP: ``parent``'s host initiating into ``child``.

    The same wiring :meth:`CodeFlowGroup._relay_sync` builds for the
    real tree fan-out -- but here it is handed to a *broken* relay
    engine that never sends its status report back.
    """
    parent_ctx = open_device(parent.host)
    local_qp = parent_ctx.create_qp(
        parent_ctx.alloc_pd(), parent_ctx.create_cq()
    )
    target_ctx = open_device(child.host)
    target_qp = target_ctx.create_qp(_pd_of(child), target_ctx.create_cq())
    connect_qps(local_qp, target_qp)
    assert child.ctx_manifest is not None
    return RemoteSync(bed.sim, local_qp, child.ctx_manifest.rkey, child)


def _schedule_relay_commit_before_body(seed: int) -> ScheduleResult:
    """A relay forwards the body; the control plane commits directly.

    The real tree deploy keeps body and commit on ONE relay QP (SQ
    FIFO orders them) and only acts on the leg after the relay's
    report.  This schedule reconstructs the tempting-but-broken
    optimization: the control plane posts the child's commit CAS on
    its own QP as soon as it has *handed off* the body, treating the
    handoff as if it were the report.  No edge orders the commit
    after the relayed chunks -- the hook can flip onto a half-landed
    image, and the detector must say so.
    """
    bed = _bed(seed, n_hosts=2)
    sim = bed.sim
    parent, child = bed.sandboxes
    body_sync = relay_sync(bed, parent, child)
    commit_sync = bed.codeflows[1].sync  # control plane -> child, direct
    assert child.ctx_manifest is not None
    code_addr = child.ctx_manifest.code_addr
    hook_addr = child.hook_table.slot_addr("ingress")
    body = bytes(range(256)) * 24  # ~6KB: lands in two MTU chunks

    note = hb_events.txn_note(sim, publishes=(code_addr, len(body)))
    sim.spawn(
        body_sync.write(code_addr, body, note={"txn": note["txn"]}),
        name="hb-relay-body",
    )
    sim.spawn(
        commit_sync.cas(hook_addr, 0, code_addr, note=note),
        name="hb-relay-commit",
    )
    sim.run(until=sim.now + 10_000)
    return _finish(
        bed,
        ScheduleResult("relay-commit-before-body", expect="commit-before-body"),
    )


def commit_chained_first(sync: RemoteSync) -> Generator:
    """Post an install chain whose fenced commit CAS rides *ahead of*
    the ~6KB body it publishes -- the order :meth:`RemoteSync.install`
    never uses -- and poll its CQE."""
    sandbox = sync.sandbox
    assert sandbox.ctx_manifest is not None
    code_addr = sandbox.ctx_manifest.code_addr
    body = bytes(range(256)) * 24  # ~6KB: lands in two MTU chunks
    sim = sync.sim
    note = hb_events.txn_note(sim, publishes=(code_addr, len(body)))
    yield sync.qp.post_send_batch([
        WorkRequest(
            opcode=WrOpcode.COMP_SWAP, rkey=sync.rkey, fence=True,
            remote_addr=sandbox.hook_table.slot_addr("ingress"),
            compare=0, swap_or_add=code_addr, hb=note, wr_id=next(sim.ids.wr),
        ),
        WorkRequest(
            opcode=WrOpcode.RDMA_WRITE, remote_addr=code_addr, rkey=sync.rkey,
            data=body, hb={"txn": note["txn"]}, wr_id=next(sim.ids.wr),
        ),
    ])
    sync.qp.cq.poll()


def _schedule_commit_chained_first(seed: int) -> ScheduleResult:
    bed = _bed(seed)
    bed.sim.run_process(commit_chained_first(bed.codeflow.sync))
    bed.sim.run(until=bed.sim.now + 10_000)
    return _finish(
        bed,
        ScheduleResult("commit-chained-first", expect="commit-before-body"),
    )


_SCHEDULES = (
    _schedule_clean_deploy,
    _schedule_reordered_commit,
    _schedule_fenceless_stale_writer,
    _schedule_torn_install,
    _schedule_bubble_race,
    _schedule_delta_chunk_reordered,
    _schedule_delta_stale_baseline,
    _schedule_relay_commit_before_body,
    _schedule_commit_chained_first,
)


def run_hb_schedules(seed: int = 0) -> HbSchedulesResult:
    """Run every schedule (each builds its own hb-checked testbed)."""
    return HbSchedulesResult(
        seed=seed, schedules=[schedule(seed) for schedule in _SCHEDULES]
    )


def format_report(result: HbSchedulesResult) -> str:
    rows = [
        [
            s.name,
            s.expect or "(clean)",
            s.detail,
            s.events,
            "ok" if s.ok else "FAIL",
        ]
        for s in result.schedules
    ]
    lines = [
        format_table(
            "hb known-bad schedule validation",
            ["schedule", "expected", "found", "hb events", "verdict"],
            rows,
        )
    ]
    for s in result.schedules:
        if not s.ok and s.findings:
            lines.append(f"-- unexpected findings for {s.name}:")
            lines.extend(f.describe() for f in s.findings)
        elif not s.ok:
            lines.append(
                f"-- DEAD DETECTOR: {s.name} produced no "
                f"{s.expect} finding"
            )
    return "\n".join(lines)


def main() -> int:
    result = run_hb_schedules()
    print(format_report(result))
    if not result.ok:
        print("hb schedule validation FAILED")
        return 1
    print("all detectors fire on their bug class; clean schedule is clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

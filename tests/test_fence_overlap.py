"""The epoch fence overlaps the dispatch, and still gates every byte.

A pipelined deploy that was not fenced by its caller posts its 8-byte
epoch-fence READ the instant its dispatch starts, while the initiator
CPU preps the chain's WQEs.  Only that local prep moves under the
READ's flight: the READ's *value* is back and checked before any
mutating WR is posted.  These tests pin the three ways that could go
wrong:

* a fenced-out deploy raises :class:`~repro.errors.StaleEpochError`
  having posted nothing, claimed nothing and left no process behind;
* a broadcast leg interrupted by its deadline while it waits on the
  dispatch charge posts nothing afterwards, and its queued charge
  never runs;
* the install chain's first post is happens-before-after the fence
  READ's completion on the same QP -- the edge the overlap must keep.
"""

import pytest

from repro.core.broadcast import CodeFlowGroup
from repro.core.reconcile import resume_control_plane
from repro.ebpf.stress import make_stress_program
from repro.errors import StaleEpochError
from repro.exp.harness import make_testbed
from repro.hb.events import extract
from repro.hb.graph import HbGraph
from repro.obs import telemetry_of
from repro.rdma.rnic import Rnic
from tests.test_install_cost import _linked_again, _spawns, _warm_deploy

pytestmark = pytest.mark.arm(pipelined_deploy=True)


def _target_bytes(bed) -> tuple:
    """The hook word, the descriptor array and the code region."""
    manifest = bed.codeflow.manifest
    memory = bed.host.memory
    return (
        memory.read(bed.sandbox.hook_table.slot_addr("ingress"), 8),
        memory.read(manifest.metadata_addr, manifest.metadata_slots * 256),
        memory.read(manifest.code_addr, manifest.code_bytes),
    )


def _claims(codeflow) -> tuple:
    allocator = codeflow.code_allocator
    return (
        dict(allocator._live), list(allocator._free), allocator.high_water,
        set(codeflow._metadata_used),
    )


def test_a_fenced_out_warm_deploy_posts_and_claims_nothing(testbed):
    bed = testbed
    codeflow = bed.codeflow
    program = make_stress_program(818, seed=1, name="app")
    linked = _linked_again(bed, program)
    successor, _ = bed.sim.run_process(
        resume_control_plane(
            bed.cluster.control_host, bed.control.journal, bed.sandboxes
        )
    )
    assert successor.epoch > codeflow.epoch
    before, claims = _target_bytes(bed), _claims(codeflow)
    cpu = bed.control.host.cpu
    busy = cpu.busy_us
    raised = []

    def stale_deploy():
        # Caught here, so the only process that could fail is one the
        # deploy left behind.
        try:
            yield from codeflow.deploy_prog(program, linked, "ingress")
        except StaleEpochError as err:
            raised.append(err)

    _, names = _spawns(bed, lambda: bed.sim.run_process(stale_deploy()))
    bed.sim.run()
    assert len(raised) == 1
    assert names["dispatch"] == 1  # the overlap ran ...
    assert names["wqe:read"] == 1
    assert not [name for name in names if name.startswith("wqe-chain")]
    assert _target_bytes(bed) == before  # ... and nothing landed
    assert _claims(codeflow) == claims
    assert bed.sim.failed_processes == []
    # The READ came back first, so the prep was cancelled, not paid.
    assert (cpu.busy_us, cpu.in_use) == (busy, 0)


@pytest.mark.arm(tree_broadcast=True, tree_degree=2)
def test_a_leg_interrupted_on_its_dispatch_charge_posts_nothing(config, monkeypatch):
    bed = make_testbed(
        n_hosts=3, cores_per_host=4, hooks=("ingress",), with_agents=False,
        config=config,
    )
    sim = bed.sim
    # d=2 over three targets: the third is relayed through the first,
    # whose host pays its dispatch.  Every core there is busy, so the
    # relayed leg's prep queues while its fence READ flies and returns.
    relay_cpu = bed.codeflows[0].sandbox.host.cpu
    hog_us = 1e6
    for _ in range(relay_cpu.cores):
        relay_cpu.spawn_task(hog_us, name="hog")
    posted = []
    submit, submit_batch = Rnic.submit, Rnic.submit_batch

    def spy_submit(self, qp, wr):
        posted.append((qp, [wr.opcode.value]))
        return submit(self, qp, wr)

    def spy_batch(self, qp, wrs):
        posted.append((qp, [wr.opcode.value for wr in wrs]))
        return submit_batch(self, qp, wrs)

    monkeypatch.setattr(Rnic, "submit", spy_submit)
    monkeypatch.setattr(Rnic, "submit_batch", spy_batch)
    group = CodeFlowGroup(bed.codeflows)
    programs = [
        make_stress_program(300, seed=i + 1, name=f"app{i}") for i in range(3)
    ]
    victim = bed.codeflows[2]
    hook_addr = victim.sandbox.hook_table.slot_addr("ingress")
    hook_before = victim.sandbox.host.memory.read(hook_addr, 8)
    result = sim.run_process(
        group.broadcast(
            programs, "ingress", use_bbu=False, allow_partial=True,
            deadline_us=100.0,
        )
    )
    outcome = result.outcomes[2]
    assert outcome.error_kind == "DeadlineExceeded"
    relay_qp = group._relay_syncs[
        (bed.codeflows[0].sandbox.name, victim.sandbox.name)
    ].qp
    # The fence READ is the only WR the leg ever posted.
    assert [ops for qp, ops in posted if qp is relay_qp] == [["read"]]
    assert victim.sandbox.host.memory.read(hook_addr, 8) == hook_before
    sim.run()  # the hogs finish; the withdrawn prep never ran
    assert relay_cpu.busy_us == relay_cpu.cores * hog_us
    assert (relay_cpu.in_use, relay_cpu.queue_len) == (0, 0)
    assert sim.failed_processes == []


@pytest.mark.arm(hb_check=True)
def test_the_chain_is_posted_after_the_fence_reads_completion(testbed):
    bed = testbed
    report, _ = _warm_deploy(bed)
    events = extract(telemetry_of(bed.sim).recorder)
    graph = HbGraph(events)
    fresh = [e for e in events if e.time_us >= report.started_us]
    fence = next(
        e for e in fresh
        if e.etype == "post" and e.kind == "READ"
        and e.addr == bed.sandbox.epoch_addr
    )
    completion = next(
        e for e in fresh
        if e.etype == "comp" and e.get("wr_id") == fence.get("wr_id")
    )
    chain = next(
        e for e in fresh
        if e.etype == "post" and e.get("chain") is not None and e.qp == fence.qp
    )
    assert fence.time_us == report.started_us
    assert fence.time_us < completion.time_us < chain.time_us
    assert graph.happens_before(completion, chain)
    assert not graph.happens_before(chain, completion)

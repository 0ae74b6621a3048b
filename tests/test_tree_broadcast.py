"""Tree-broadcast fault paths and the cross-shard commit (rack scale).

The happy path is covered by the scale bench; what these tests pin
down is the *failure* matrix of the relay fan-out:

* a broken relay path (dead link, crashed parent host) falls back to
  direct delivery from the control plane -- the target still gets its
  update, the fallback is counted;
* a failed relay's whole subtree falls back rather than being
  stranded;
* an abort rolls back every reached subtree, all-or-nothing;
* a relayed leg fenced by a successor epoch propagates
  :class:`~repro.errors.StaleEpochError` -- never downgraded to a
  fallback, never force-fed direct bytes, and the lowering phase
  leaves the successor's bubble alone;
* the bubble raise rides the tail of each leg's stage chain, so it
  walks the same forest under the same rules: a broken relay path
  retries directly, a failed raise hands its subtree to the control
  plane, a fenced relayed raise fails its leg;
* the cross-shard coordinator commits/aborts/degrades on the global
  tally, and a forfeited shard never strands its siblings.
"""

from dataclasses import replace

import pytest

from repro.core.broadcast import CodeFlowGroup, _FanoutPlan
from repro.core.codeflow import CodeFlow
from repro.core.shard import ShardCoordinator, partition
from repro.ebpf.stress import make_stress_program
from repro.errors import (
    BroadcastAborted,
    ConsistencyError,
    DeployError,
    HostUnreachable,
)
from repro.exp.harness import make_testbed
from repro.exp.scale import sharded_testbed
from repro.hb import checker
from repro.mem.layout import pack_qword
from repro.params import DEFAULT, configure
from repro.sim.core import Interrupt, Simulator


#: The tree arm with degree 2, so 9 targets give depth > 2 (roots
#: 0-1; e.g. position 8 is relayed via 3, itself via 0).  Relays exist
#: in the pipelined arm only, and the fallback counters are read under
#: the aggregated ``_all`` label.
TREE = replace(
    DEFAULT, tree_broadcast=True, tree_degree=2, pipelined_deploy=True,
    obs_target_labels=False,
)


@pytest.fixture
def bed():
    return make_testbed(
        n_hosts=9, cores_per_host=2, hooks=("ingress",),
        with_agents=False, seed=3, config=TREE,
    )


def sharded_bed():
    """8 targets under 2 control-plane shards, on the tree arm."""
    sim = Simulator()
    configure(sim, TREE)
    return sharded_testbed(8, shards=2, cores_per_host=2, seed=5, sim=sim)


def programs_for(bed, size=150):
    return [
        make_stress_program(size, seed=i + 1, name=f"tb{i}")
        for i in range(len(bed.codeflows))
    ]


def fallback_count(bed, reason):
    metric = bed.obs.registry.get(
        "rdx.broadcast.relay_fallback", target="_all", reason=reason
    )
    return metric.value if metric is not None else 0


class TestTreeFanout:
    def test_tree_deploys_everywhere(self, bed):
        progs = programs_for(bed)
        result = bed.sim.run_process(
            CodeFlowGroup(bed.codeflows).broadcast(progs, "ingress")
        )
        assert result.group_size == 9
        assert all(outcome.ok for outcome in result.outcomes)
        for sandbox in bed.sandboxes:
            out, _ = sandbox.run_hook("ingress", bytes(256))
            assert out is not None
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_broken_relay_path_falls_back_to_direct(self, bed):
        """A dead relay link is a *path* problem, not a target problem:
        the shard still owes the target its update, delivered direct."""
        victim = bed.codeflows[-1]
        original = CodeFlowGroup._stage_step

        def broken(self, codeflow, *args, relayed=False, **kwargs):
            if codeflow is victim and relayed:
                raise HostUnreachable(
                    f"{codeflow.sandbox.name}: relay link dead"
                )
            return original(self, codeflow, *args, relayed=relayed, **kwargs)

        CodeFlowGroup._stage_step = broken
        try:
            result = bed.sim.run_process(
                CodeFlowGroup(bed.codeflows).broadcast(
                    programs_for(bed), "ingress"
                )
            )
        finally:
            CodeFlowGroup._stage_step = original
        assert all(outcome.ok for outcome in result.outcomes)
        assert fallback_count(bed, "HostUnreachable") == 1
        out, _ = victim.sandbox.run_hook("ingress", bytes(256))
        assert out is not None

    def test_failed_relay_subtree_falls_back_not_stranded(self, bed):
        """When a relay's own deploy fails, its children must not wait
        on a parent that will never forward: they fall back to direct
        delivery (reason ``parent-failed``) and still succeed."""
        root = bed.codeflows[0]  # tree position 0: children are 2 and 3
        original = CodeFlow.stage_prog

        def failing(self, program, linked, hook_name, **kwargs):
            if self is root:
                raise DeployError("root deploy blew up")
            report = yield from original(
                self, program, linked, hook_name, **kwargs
            )
            return report

        CodeFlow.stage_prog = failing
        try:
            result = bed.sim.run_process(
                CodeFlowGroup(bed.codeflows).broadcast(
                    programs_for(bed), "ingress", allow_partial=True
                )
            )
        finally:
            CodeFlow.stage_prog = original
        assert result.degraded
        assert not result.outcomes[0].ok
        assert all(outcome.ok for outcome in result.outcomes[1:])
        # Exactly the failed root's two children fell back; their own
        # subtrees relayed through them as usual.
        assert fallback_count(bed, "parent-failed") == 2

    def test_relay_crashed_after_its_flip_lowers_its_subtree_directly(
        self, bed
    ):
        """The lowers walk the forest the flips did, so a relay that
        flipped is an interior node of it.  Its host dies between its
        flip and its lower (index 2: lowered via 0, relaying 6 and 7):
        its own lower fails over the relay and once directly, counted
        once, and its children lower over the control plane's QPs --
        every other bubble comes down."""
        victim = bed.codeflows[2]
        routes = {}
        original = CodeFlowGroup._lower_leg

        def lower_leg(self, codeflow, flushes, sync=None, after=None):
            if codeflow is victim and not victim.sandbox.host.crashed:
                victim.sandbox.host.crash()
            routes.setdefault(codeflow, sync)
            return original(self, codeflow, flushes, sync, after)

        CodeFlowGroup._lower_leg = lower_leg
        try:
            result = bed.sim.run_process(
                CodeFlowGroup(bed.codeflows).broadcast(
                    programs_for(bed), "ingress"
                )
            )
        finally:
            CodeFlowGroup._lower_leg = original
        assert all(outcome.ok for outcome in result.outcomes)
        assert routes[victim] is not None  # relayed, then retried directly
        assert fallback_count(bed, "lower") == 1
        metric = bed.obs.registry.get(
            "rdx.broadcast.bubble_lower_failed", target="_all"
        )
        assert metric.value == 1
        for index in (6, 7):
            assert routes[bed.codeflows[index]] is None
        raised = [i for i, sb in enumerate(bed.sandboxes) if sb.bubble_active()]
        assert raised == [2]

    def test_abort_rolls_back_reached_subtrees(self, bed):
        """A torn image on one leaf aborts the round after most of the
        tree already deployed: every reached subtree must roll back
        (all-or-nothing) and every bubble must drop."""
        from repro.core.faults import FaultInjector, FaultKind

        progs = programs_for(bed)
        injector = FaultInjector(bed.codeflows[-1], seed=11)
        injector.arm(FaultKind.TORN_WRITE)
        injector.attach()
        try:
            process = bed.sim.spawn(
                CodeFlowGroup(bed.codeflows).broadcast(progs, "ingress")
            )
            bed.sim.run()
        finally:
            injector.detach()
        with pytest.raises(BroadcastAborted) as excinfo:
            _ = process.value
        assert isinstance(excinfo.value, ConsistencyError)
        # No target -- root, relay, or leaf -- keeps the new image.
        for codeflow, prog in zip(bed.codeflows, progs):
            assert prog.name not in codeflow.deployed
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_stale_epoch_relayed_leg_fenced_not_fallback(self, bed):
        """A successor incarnation claims a target mid-broadcast: the
        relayed leg's fence read sees the newer epoch and the leg fails
        with StaleEpochError -- a deploy-semantics failure that must
        propagate, not trigger direct fallback (the control plane has
        no more right to those bytes than the relay did)."""
        progs = programs_for(bed)
        victim = bed.codeflows[-1]  # deep in the tree: a relayed leg
        original = CodeFlowGroup._stage_step

        def fencing(self, codeflow, *args, relayed=False, **kwargs):
            if codeflow is victim and relayed:
                # Successor bumps the fencing word before the relayed
                # stage (write-through, so the relay QP's 8-byte fence
                # read observes it).
                codeflow.sandbox.host.cache.cpu_write(
                    codeflow.sandbox.epoch_addr,
                    pack_qword(codeflow.epoch + 1),
                )
            return original(self, codeflow, *args, relayed=relayed, **kwargs)

        CodeFlowGroup._stage_step = fencing
        try:
            process = bed.sim.spawn(
                CodeFlowGroup(bed.codeflows).broadcast(progs, "ingress")
            )
            bed.sim.run()
        finally:
            CodeFlowGroup._stage_step = original
        with pytest.raises(BroadcastAborted) as excinfo:
            _ = process.value
        result = excinfo.value.result
        outcome = next(
            o for o in result.outcomes if o.target == victim.sandbox.name
        )
        assert outcome.error_kind == "StaleEpochError"
        # Fenced != fallback: no direct-delivery retry was counted.
        assert fallback_count(bed, "StaleEpochError") == 0
        # The abort rolled everyone else back and dropped their
        # bubbles; the fenced target's bubble belongs to the successor
        # now and the stale plane left it alone.
        for codeflow in bed.codeflows:
            if codeflow is not victim:
                assert not codeflow.sandbox.bubble_active()


def _fence_on_relayed_raise(victim, act):
    """Patch ``CodeFlow.check_fence`` so that ``act(victim)`` runs just
    before ``victim``'s fence READ whenever it is staging -- and so
    raising its bubble -- over a relay: its sync swapped for a relay's.
    Returns the undo."""
    direct = victim.sync
    original = CodeFlow.check_fence

    def check_fence(self):
        if self is victim and self.sync is not direct:
            act(self)
        return original(self)

    CodeFlow.check_fence = check_fence
    return lambda: setattr(CodeFlow, "check_fence", original)


class TestRaiseDownTheForest:
    """Phase 1 is a walk of the forest too: a child's bubble rises over
    its parent's relay QP, on the tail of its stage chain, behind the
    stage's fence READ."""

    def test_broken_relay_raise_retries_directly(self, bed):
        """The lower's rule: a relay *path* error retries once from the
        control plane, counted under the error's name like any relayed
        stage; the leg then deploys as usual."""
        victim = bed.codeflows[-1]  # position 8: raised via position 3

        def dead_link(codeflow):
            raise HostUnreachable(f"{codeflow.sandbox.name}: relay link dead")

        undo = _fence_on_relayed_raise(victim, dead_link)
        try:
            result = bed.sim.run_process(
                CodeFlowGroup(bed.codeflows).broadcast(
                    programs_for(bed), "ingress"
                )
            )
        finally:
            undo()
        assert all(outcome.ok for outcome in result.outcomes)
        assert fallback_count(bed, "HostUnreachable") == 1
        assert fallback_count(bed, "raise") == 0
        out, _ = victim.sandbox.run_hook("ingress", bytes(256))
        assert out is not None
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_failed_raise_hands_its_subtree_to_the_control_plane(self, bed):
        """An internal node (index 1; children 4 and 5 at degree 2) is
        down: its raise fails, and its children raise directly, counted
        ``parent-failed`` like the deploy walk -- never over the dead
        host, never stranded."""
        raised = []
        direct = {id(codeflow.sync) for codeflow in bed.codeflows}
        original = CodeFlow.stage_prog

        def stage_prog(self, program, linked, hook_name, **kwargs):
            raised.append(
                (self.sandbox.name, bool(kwargs["tail"]), id(self.sync) in direct)
            )
            return original(self, program, linked, hook_name, **kwargs)

        host = bed.codeflows[1].sandbox.host
        host.crash()
        CodeFlow.stage_prog = stage_prog
        try:
            result = bed.sim.run_process(
                CodeFlowGroup(bed.codeflows).broadcast(
                    programs_for(bed), "ingress", allow_partial=True
                )
            )
        finally:
            CodeFlow.stage_prog = original
            host.recover()
        assert result.degraded
        assert not result.outcomes[1].ok
        assert all(o.ok for i, o in enumerate(result.outcomes) if i != 1)
        assert fallback_count(bed, "parent-failed") == 2
        assert fallback_count(bed, "raise") == 0
        direct_raises = {
            name for name, raising, direct in raised if raising and direct
        }
        for index in (4, 5):
            assert bed.codeflows[index].sandbox.name in direct_raises
        for index, sandbox in enumerate(bed.sandboxes):
            if index != 1:
                assert not sandbox.bubble_active()

    def test_stale_epoch_on_a_relayed_raise_fails_the_leg(self, bed):
        """A successor owns the target before its relayed raise: the
        fence READ over the relay sees the newer epoch, so the leg
        fails with StaleEpochError -- no direct retry, and its bubble
        is neither raised nor lowered by the stale plane."""
        victim = bed.codeflows[-1]
        written = []
        original = CodeFlowGroup._write_bubble

        def write_bubble(self, codeflow, value, sync, flushes=None):
            written.append(codeflow)
            return original(self, codeflow, value, sync, flushes)

        def successor(codeflow):
            codeflow.sandbox.host.cache.cpu_write(
                codeflow.sandbox.epoch_addr, pack_qword(codeflow.epoch + 1)
            )

        undo = _fence_on_relayed_raise(victim, successor)
        CodeFlowGroup._write_bubble = write_bubble
        try:
            process = bed.sim.spawn(
                CodeFlowGroup(bed.codeflows).broadcast(
                    programs_for(bed), "ingress"
                )
            )
            bed.sim.run()
        finally:
            CodeFlowGroup._write_bubble = original
            undo()
        with pytest.raises(BroadcastAborted) as excinfo:
            _ = process.value
        outcome = excinfo.value.result.outcomes[-1]
        assert outcome.error_kind == "StaleEpochError"
        assert fallback_count(bed, "raise") == 0
        assert victim not in written
        assert written and all(not sb.bubble_active() for sb in bed.sandboxes)


class TestRaiseUnderAPendingVerdict:
    """One program for every target: its JIT's charge ends long before
    its verifier's, so the legs stage bare under the verifier and a
    raise walk of their own follows the verdict."""

    def _program(self):
        return make_stress_program(400, seed=7, name="shared")

    def test_broken_relay_raise_retries_directly(self, bed):
        """A relayed raise (no dispatch CPU borrowed, unlike a relayed
        stage) whose relay path breaks retries once from the control
        plane, counted ``raise``; the broadcast commits."""
        victim = bed.codeflows[-1]

        def dead_link(codeflow):
            if codeflow.dispatch_cpu is None:
                raise HostUnreachable(f"{codeflow.sandbox.name}: relay link dead")

        undo = _fence_on_relayed_raise(victim, dead_link)
        try:
            result = bed.sim.run_process(
                CodeFlowGroup(bed.codeflows).broadcast(
                    [self._program()] * len(bed.codeflows), "ingress"
                )
            )
        finally:
            undo()
        assert all(outcome.ok for outcome in result.outcomes)
        assert fallback_count(bed, "raise") == 1
        assert fallback_count(bed, "HostUnreachable") == 0
        out, _ = victim.sandbox.run_hook("ingress", bytes(256))
        assert out is not None
        assert all(not sb.bubble_active() for sb in bed.sandboxes)

    def test_an_abandoned_verdict_gives_every_stage_back(self, bed):
        """The verdict the legs staged under belongs to another caller's
        compile, abandoned after the stages landed: the broadcast fails
        with it and gives back every staged extent and descriptor."""
        sim, control = bed.sim, bed.control
        program = self._program()
        before = [
            (dict(cf.code_allocator._live), set(cf._metadata_used))
            for cf in bed.codeflows
        ]

        def abandon():
            leader = sim.spawn(control.prepare_for(bed.codeflows[0], program))
            yield 300.0
            leader.interrupt("compile abandoned")

        sim.spawn(abandon())
        doomed = sim.spawn(
            CodeFlowGroup(bed.codeflows).broadcast(
                [program] * len(bed.codeflows), "ingress"
            )
        )
        sim.run()
        with pytest.raises(Interrupt):
            _ = doomed.value
        assert control.prepare_coalesced == 1
        staged = bed.obs.registry.get("rdx.broadcast.legs", mode="full", target="_all")
        assert staged.value == len(bed.codeflows)  # every leg had staged
        after = [
            (dict(cf.code_allocator._live), set(cf._metadata_used))
            for cf in bed.codeflows
        ]
        assert after == before
        assert not any(sb.bubble_active() for sb in bed.sandboxes)


class TestPhaseZeroImagesBelongToTheBroadcast:
    """The Phase-0 images live on the broadcast's plan, not on the
    group: a leg can only ever forward an image this broadcast linked."""

    def _bed(self):
        return make_testbed(
            n_hosts=5, cores_per_host=2, hooks=("ingress",),
            with_agents=False, seed=3, config=TREE,
        )

    def _programs(self, version):
        return [
            make_stress_program(150, seed=version * 31 + i + 1, name=f"pz{i}")
            for i in range(5)
        ]

    def _r0(self, sandbox):
        execution, _ = sandbox.run_hook("ingress", bytes(256))
        return execution.r0

    def _consume(self, bed):
        """Two relay broadcasts on one group: a relayed *lower* reports
        back to the control plane without an hb hand-off edge (a
        relayed deploy has one), so the next raise on that target
        reads as a bubble-race -- an hb-model gap on the parent too
        (ROADMAP item 6 iv), not this test's subject."""
        checker.consume(bed.sim)

    def test_phase0_link_failure_does_not_deploy_previous_image(self):
        """v0, then v1 with ``link_code`` failing once in Phase 0 for a
        relayed target.  The completion fallacy in one test: every leg
        used to report ok -- bytes landed -- while that target ran v0,
        forwarded from the group's cache under v1's name."""
        bed = self._bed()
        group = CodeFlowGroup(bed.codeflows)
        v0, v1 = self._programs(0), self._programs(1)
        bed.sim.run_process(group.broadcast(v0, "ingress"))

        victim = bed.codeflows[-1]  # position 4: relayed via position 0
        original = CodeFlow.link_code
        armed = [True]

        def flaky(self, binary, **kwargs):
            if self is victim and armed[0]:
                armed[0] = False
                raise DeployError("link blew up in Phase 0")
            return original(self, binary, **kwargs)

        CodeFlow.link_code = flaky
        try:
            result = bed.sim.run_process(group.broadcast(v1, "ingress"))
        finally:
            CodeFlow.link_code = original
        assert all(outcome.ok for outcome in result.outcomes)
        # What the hooks *run* is v1: the same r0 a v1-only rack returns.
        fresh = self._bed()
        fresh.sim.run_process(
            CodeFlowGroup(fresh.codeflows).broadcast(v1, "ingress")
        )
        assert [self._r0(sb) for sb in bed.sandboxes] == [
            self._r0(sb) for sb in fresh.sandboxes
        ]
        for codeflow, program in zip(bed.codeflows, v1):
            record = codeflow.deployed[program.name]
            assert record.program.tag() == program.tag()
        # The leg found no image, said so, and went through inject.
        assert fallback_count(bed, "no-prelink") == 1
        self._consume(bed)

    def test_second_broadcast_never_sees_an_image_it_did_not_link(self):
        bed = self._bed()
        group = CodeFlowGroup(bed.codeflows)
        linked_by = {}  # id(image) -> broadcast round that linked it
        forwarded = []
        rounds = [0]
        link, deploy = CodeFlow.link_code, CodeFlow.stage_prog

        def linking(self, binary, **kwargs):
            image = yield from link(self, binary, **kwargs)
            linked_by.setdefault(id(image), rounds[0])
            return image

        def deploying(self, program, linked, hook_name, **kwargs):
            forwarded.append((rounds[0], linked_by[id(linked)]))
            return deploy(self, program, linked, hook_name, **kwargs)

        CodeFlow.link_code, CodeFlow.stage_prog = linking, deploying
        try:
            for version in range(2):
                rounds[0] = version
                bed.sim.run_process(
                    group.broadcast(self._programs(version), "ingress")
                )
        finally:
            CodeFlow.link_code, CodeFlow.stage_prog = link, deploy
        assert len(forwarded) == 10
        assert all(used == linked for used, linked in forwarded)
        # ...and the group keeps no image between broadcasts: the relay
        # QPs are its only state that outlives one.
        assert set(vars(group)) == {
            "codeflows", "sim", "control_plane", "config", "shard",
            "_label", "_relay_syncs",
        }
        self._consume(bed)


class TestOneForest:
    def test_hub_and_spoke_is_the_forest_of_degree_n(self):
        flat = replace(TREE, tree_broadcast=False)
        plan = _FanoutPlan.build(
            flat, 9, range(8, -1, -1), False, {"t": object()}
        )
        assert plan.degree == 9 and plan.images == {}
        assert not plan.sequential
        assert all(not plan.children(pos, 9) for pos in range(9))

    def test_serial_arm_builds_the_edgeless_forest(self):
        """``tree_broadcast`` under the serial arm: no relays (a relay
        forwards a WR chain only the pipelined arm builds), so every
        position is a root, its Phase-0 images go unused and the lowers
        run in order."""
        serial = replace(TREE, pipelined_deploy=False)
        plan = _FanoutPlan.build(
            serial, 9, range(8, -1, -1), False, {"t": object()}
        )
        assert plan.degree == 9 and plan.images == {} and plan.sequential
        assert all(not plan.children(pos, 9) for pos in range(9))
        bed = make_testbed(
            n_hosts=9, cores_per_host=2, hooks=("ingress",),
            with_agents=False, seed=3, config=serial,
        )
        group = CodeFlowGroup(bed.codeflows)
        result = bed.sim.run_process(
            group.broadcast(programs_for(bed), "ingress")
        )
        assert all(outcome.ok for outcome in result.outcomes)
        assert group._relay_syncs == {}

    def test_relays_on_gives_the_d_ary_forest(self):
        plan = _FanoutPlan.build(TREE, 9, range(8, -1, -1), False, {})
        assert plan.degree == 2 and not plan.sequential
        assert [list(plan.children(pos, 9)) for pos in range(4)] == [
            [2, 3], [4, 5], [6, 7], [8],
        ]
        # An explicit dependency_order keeps the relayed deploys and
        # lowers one bubble at a time.
        assert _FanoutPlan.build(TREE, 9, range(9), True, {}).sequential


class TestCrossShardCommit:
    def _programs(self, bed):
        return [
            make_stress_program(150, seed=i + 1, name=f"sh{i}")
            for i in range(len(bed.codeflows))
        ]

    def test_commit_when_every_shard_is_clean(self):
        bed = sharded_bed()
        result = bed.sim.run_process(
            bed.sharded.broadcast(self._programs(bed), "ingress")
        )
        assert result.group_size == 8
        assert all(outcome.ok for outcome in result.outcomes)
        assert result.bubble_window_us > 0
        # The merged hold runs from the first bubble up in any shard.
        assert result.started_us < result.first_raised_us
        assert result.first_raised_us <= result.bubble_raised_us
        decisions = bed.obs.registry.counter(
            "rdx.shard.decisions", decision="commit"
        )
        assert decisions.value == 1

    def test_sibling_shard_failure_aborts_clean_shard(self):
        """All-or-nothing spans shards: shard 0's clean legs roll back
        because a target in shard 1 failed."""
        bed = sharded_bed()
        progs = self._programs(bed)
        victim = bed.codeflows[-1]  # owned by shard 1
        original = CodeFlow.stage_prog

        def failing(self, program, linked, hook_name, **kwargs):
            if self is victim:
                raise DeployError("shard1 target blew up")
            report = yield from original(
                self, program, linked, hook_name, **kwargs
            )
            return report

        CodeFlow.stage_prog = failing
        try:
            process = bed.sim.spawn(
                bed.sharded.broadcast(progs, "ingress")
            )
            bed.sim.run()
        finally:
            CodeFlow.stage_prog = original
        with pytest.raises(BroadcastAborted):
            _ = process.value
        for codeflow, prog in zip(bed.codeflows, progs):
            assert prog.name not in codeflow.deployed
        assert all(not sb.bubble_active() for sb in bed.sandboxes)
        abort = bed.obs.registry.counter(
            "rdx.shard.decisions", decision="abort"
        )
        assert abort.value == 1

    def test_quorum_degrades_on_the_global_tally(self):
        bed = sharded_bed()
        progs = self._programs(bed)
        victim = bed.codeflows[-1]
        original = CodeFlow.stage_prog

        def failing(self, program, linked, hook_name, **kwargs):
            if self is victim:
                raise DeployError("shard1 target blew up")
            report = yield from original(
                self, program, linked, hook_name, **kwargs
            )
            return report

        CodeFlow.stage_prog = failing
        try:
            result = bed.sim.run_process(
                bed.sharded.broadcast(progs, "ingress", allow_partial=True)
            )
        finally:
            CodeFlow.stage_prog = original
        assert result.degraded
        survivors = [o for o in result.outcomes if o.ok]
        assert len(survivors) == 7
        # Survivors on *both* shards kept the new logic.
        for codeflow, prog in zip(bed.codeflows, progs):
            if codeflow is not victim:
                assert prog.name in codeflow.deployed


    def test_dependency_order_is_rejected_before_anything_is_journaled(self):
        """A cross-shard lower order cannot be kept by K independent
        lower loops.  It used to be handed to every shard, each of
        which refused it -- after the coordinator had minted its txn,
        so an argument error left a ``shard-commit`` begin + abort in
        the lead journal and counted as an aborted decision."""
        bed = sharded_bed()
        lead = bed.planes[0]
        records = [len(plane.journal) for plane in bed.planes]
        with pytest.raises(DeployError, match="dependency_order"):
            bed.sim.run_process(
                bed.sharded.broadcast(
                    self._programs(bed), "ingress",
                    dependency_order=list(range(8)),
                )
            )
        with pytest.raises(DeployError, match="one program per target"):
            bed.sim.run_process(
                bed.sharded.broadcast(self._programs(bed)[:3], "ingress")
            )
        assert [len(plane.journal) for plane in bed.planes] == records
        assert bed.obs.registry.series("rdx.shard.decisions") == []
        # The txn counter did not move either: the next clean sharded
        # broadcast is the lead plane's first shard-commit.
        bed.sim.run_process(
            bed.sharded.broadcast(self._programs(bed), "ingress")
        )
        commits = [
            record for record in lead.journal.records
            if record.op == "shard-commit"
        ]
        assert [record.rec for record in commits] == ["INTEND", "COMMIT"]
        assert commits[0].txn == "shard-commit-1.beef0001"
        decisions = bed.obs.registry.series("rdx.shard.decisions")
        assert [(m.labels, m.value) for m in decisions] == [
            ((("decision", "commit"),), 1.0)
        ]


class TestShardCoordinator:
    def test_forfeit_counts_as_all_failed(self, sim):
        coordinator = ShardCoordinator(sim, shards=["a", "b"])

        def voter():
            decision = yield from coordinator.vote(
                "a", ok=["t0", "t1"], failed=[]
            )
            return decision

        process = sim.spawn(voter())
        sim.run()
        assert process.is_alive  # blocked: shard b has not voted
        coordinator.forfeit("b")
        sim.run()
        assert process.value == "abort"

    def test_unknown_and_double_votes_rejected(self, sim):
        coordinator = ShardCoordinator(sim, shards=["a"])
        with pytest.raises(ConsistencyError):
            sim.run_process(coordinator.vote("ghost", ok=[], failed=[]))
        assert sim.run_process(
            coordinator.vote("a", ok=["t0"], failed=[])
        ) == "commit"
        with pytest.raises(ConsistencyError):
            sim.run_process(coordinator.vote("a", ok=["t0"], failed=[]))

    def test_partition_is_contiguous_and_never_empty(self):
        assert partition(list(range(10)), 3) == [
            [0, 1, 2, 3], [4, 5, 6], [7, 8, 9]
        ]
        assert partition([1, 2], 5) == [[1], [2]]
        with pytest.raises(ValueError):
            partition([1], 0)

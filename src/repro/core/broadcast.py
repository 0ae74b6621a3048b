"""Collective CodeFlow: transactional cluster-wide updates (paper §4).

``rdx_broadcast`` treats a group update as one distributed transaction
whose write set spans every target hook (inspired by RDMA distributed
transactions).  Consistency comes from **Big Bubble Update (BBU)**:

1. raise the *bubble flag* on every target (data paths buffer incoming
   requests instead of executing mixed logic),
2. deploy all extensions in parallel,
3. lower the flags in dependency order, releasing buffered requests.

Because RDX injection is microseconds, the bubble -- and therefore the
request buffer -- stays tiny; the same scheme under an agent baseline
would need to buffer ~rate x window requests (§2.2 Obs 2's 1M-request
example), which is the ablation ``bench_ablate_bbu`` quantifies.

The transaction has an **abort path**: every target's deploy leg runs
under its own deadline and collects its own outcome; if any leg fails
(deploy error, CRC-failed verify readback, crashed/partitioned target,
deadline expiry) the targets that *did* succeed are rolled back to
their prior image -- all-or-nothing visibility -- and
:class:`~repro.errors.BroadcastAborted` is raised *after* every
reachable bubble has been lowered.  ``allow_partial=True`` opts into
quorum mode instead: surviving targets keep the new logic and the
result is marked ``degraded``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from repro import params
from repro.hb import events as hb
from repro.errors import (
    BroadcastAborted,
    ConsistencyError,
    DeadlineExceeded,
    DeployError,
    HostUnreachable,
    RdmaError,
    ReproError,
    StaleEpochError,
)
from repro.ebpf.program import BpfProgram
from repro.mem.layout import pack_qword
from repro.rdma.verbs import connect_qps, open_device
from repro.core.codeflow import CodeFlow
from repro.core.health import HealthDetector, TargetHealth
from repro.core.rollback import RollbackManager
from repro.core.sync import RemoteSync


@dataclass
class TargetOutcome:
    """What happened to one target during a broadcast."""

    target: str
    program: str
    ok: bool = False
    #: DeployReport when the leg succeeded.
    report: object = None
    error: str = ""
    error_kind: str = ""
    #: Abort-path disposition for a leg that had succeeded.
    rolled_back: bool = False
    detached: bool = False

    def fail(self, err: BaseException) -> None:
        self.ok = False
        self.error = str(err)
        self.error_kind = type(err).__name__


@dataclass
class BroadcastResult:
    """Timing + outcome of one collective update."""

    group_size: int
    started_us: float
    bubble_raised_us: float = 0.0
    deploys_done_us: float = 0.0
    bubble_lowered_us: float = 0.0
    #: The consistency-critical window during which requests buffer.
    bubble_window_us: float = 0.0
    reports: list = field(default_factory=list)
    #: Per-target dispositions, one per group member.
    outcomes: list[TargetOutcome] = field(default_factory=list)
    #: True when the transaction failed and succeeded legs were undone.
    aborted: bool = False
    #: True when ``allow_partial`` kept a partially-updated group live.
    degraded: bool = False
    #: Time spent undoing succeeded legs on the abort path.
    abort_us: float = 0.0

    @property
    def total_us(self) -> float:
        return self.bubble_lowered_us - self.started_us

    @property
    def failed_targets(self) -> list[TargetOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]


def commit_rule(ok: int, failed: int, allow_partial: bool) -> str:
    """The one commit rule, for a group and for a rack of shards alike.

    ``commit`` -- no leg failed; ``degraded`` -- failures exist,
    ``allow_partial`` is on and at least one leg survived (quorum
    mode); ``abort`` -- otherwise: every succeeded leg is rolled back.
    :class:`~repro.core.shard.ShardCoordinator` applies it to the
    global tally, an unsharded broadcast to its own.
    """
    if not failed:
        return "commit"
    return "degraded" if allow_partial and ok else "abort"


@dataclass(frozen=True)
class _FanoutPlan:
    """The shape of one broadcast's fan-out; costs no simulated time.

    Any list of positions the broadcast walks -- the active legs of
    the deploy phase, the lowerable bubbles of the lower phase -- is a
    d-ary forest: the first ``degree`` positions are roots, served by
    the control plane itself, and position ``p`` hands on to positions
    ``[(p+1)*d, (p+2)*d)`` -- depth ceil(log_d N) with every parent
    fanning out to at most ``d`` children, which is exactly what one
    sandbox host's RNIC pipeline absorbs in parallel.  Hub-and-spoke
    is the same forest with ``degree`` = the group size: every
    position a root, no edges.
    """

    degree: int
    #: target name -> image linked during this broadcast's Phase 0 --
    #: the chained WR payload a relay forwards verbatim, so a relayed
    #: leg never touches the control plane's CPU or QPs.  Empty when
    #: relays are off: a hub-and-spoke leg goes through ``inject``,
    #: whose linked-image cache hit skips the stub rendezvous (letting
    #: flat legs deploy the Phase-0 image instead was measured: the
    #: N=13 window grows 54.79 -> 61.69 us).
    images: dict
    #: Group indices in the order their bubbles are lowered.
    order: tuple
    #: True: lower one bubble at a time, in ``order`` (an explicit
    #: dependency_order -- a caller's bubble only drops once its
    #: callees confirm new logic -- or the serial arm).  False: the
    #: caller declared no dependencies, so the lowers walk the forest.
    sequential: bool

    @classmethod
    def build(cls, config, group_size, order, ordered, images) -> "_FanoutPlan":
        """The one place the fan-out knobs are read."""
        pipelined = config.pipelined_deploy
        relays = config.tree_broadcast and pipelined
        return cls(
            degree=max(1, config.tree_degree) if relays else group_size,
            images=images if relays else {},
            order=tuple(order),
            sequential=ordered or not pipelined,
        )

    def children(self, pos: int, size: int) -> range:
        """Positions handed on to by ``pos`` in a walk of ``size``."""
        first = (pos + 1) * self.degree
        return range(first, min(first + self.degree, size))


class CodeFlowGroup:
    """A set of CodeFlows updated as one transaction."""

    def __init__(self, codeflows: Sequence[CodeFlow]):
        if not codeflows:
            raise DeployError("empty CodeFlow group")
        self.codeflows = list(codeflows)
        self.sim = codeflows[0].sim
        self.control_plane = codeflows[0].control_plane
        self.config = codeflows[0].config
        #: Shard name this group's metrics aggregate under (empty for
        #: a plain unsharded plane), through the hub's ``target_label``.
        self.shard = getattr(self.control_plane, "shard", "")
        self._label = self.control_plane.obs.target_label
        #: (parent sandbox, child sandbox) -> relay RemoteSync, built
        #: lazily the first time a broadcast routes that edge and
        #: reused across broadcasts (QP setup is one-time state, like
        #: the control plane's own QPs).
        self._relay_syncs: dict[tuple[str, str], RemoteSync] = {}

    def __len__(self) -> int:
        return len(self.codeflows)

    # -- bubble control -------------------------------------------------------

    def _write_bubble(
        self,
        codeflow: CodeFlow,
        value: int,
        sync: RemoteSync,
        flushes: Optional[list] = None,
    ) -> Generator:
        """Set one bubble flag and flush it to the target's CPU.

        The pipelined path chains the flag write and the ``cc_event``
        doorbell into ONE WR chain (one doorbell, one completion); the
        serial path keeps the blocking write + flush pair.  What the
        chain buys a *raise* is WR accounting: the fire-and-forget
        doorbell ``cc_event`` posts would otherwise still be sitting
        in the control RNIC pipeline when the raise barrier completes
        -- N orphan doorbells draining capacity-at-a-time *ahead of
        the first deploy chains*, an O(N) serial term inside the very
        window this phase exists to shrink.  Chaining write+doorbell
        retires both before the barrier does.

        ``flushes=None`` (a raise) waits for the flush effect: raising
        must flush *synchronously* -- a data path reading a stale 0
        mid-update is the consistency violation BBU exists to prevent
        -- so this generator does not return until the flush has
        landed and no deploy write can overtake a half-raised bubble.
        Lowering is the benign direction: a stale "still raised" just
        buffers a few extra requests for ~2us.  So a lower passes the
        list its flush is appended to, and the flush *effect* lands
        asynchronously while the next target's lower goes out.
        """
        addr = codeflow.sandbox.bubble_addr
        if not self.config.pipelined_deploy:
            yield from sync.write(addr, pack_qword(value))
            yield from sync.cc_event(addr, 8)
            return
        doorbell = codeflow.sandbox.control_addr + 24  # OFF_DOORBELL
        yield from sync.write_batch(
            [(addr, pack_qword(value)), (doorbell, pack_qword(1))]
        )
        flush = self._flush_bubble(codeflow, addr, sync, waited=flushes is None)
        if flushes is None:
            yield from flush
        else:
            flushes.append(
                self.sim.spawn(
                    flush, name=f"bubble-flush:{codeflow.sandbox.name}"
                )
            )

    def _lower_leg(
        self,
        codeflow: CodeFlow,
        flushes: list,
        sync: Optional[RemoteSync] = None,
    ) -> Generator:
        """One lowering, failure-isolated: a target whose lower fails
        (unreachable, flaky) is counted, never fatal -- and when the
        lowers run concurrently, never strands a sibling.  A *relayed*
        lower (``sync`` riding a forest parent's QP) that fails retries
        once directly from the control plane before being counted --
        a crashed relay must never leave its subtree buffering.
        Returns the codeflow: in a forest walk the children keep
        relaying through this target -- its QP fan-out is what spreads
        the lowering load -- even if its own lower was counted as
        failed."""
        try:
            yield from self._write_bubble(
                codeflow, 0, sync or codeflow.sync, flushes
            )
        except ReproError:
            if sync is not None:
                self._relay_fallback(codeflow, "lower")
                return (yield from self._lower_leg(codeflow, flushes))
            self.control_plane.obs.counter(
                "rdx.broadcast.bubble_lower_failed",
                target=self._label(codeflow.sandbox.name, self.shard),
            ).inc()
        return codeflow

    def _flush_bubble(
        self, codeflow: CodeFlow, addr: int, sync: RemoteSync,
        waited: bool = False,
    ) -> Generator:
        """The effect of an already-chained flush doorbell.

        The doorbell WR already landed with the bubble write; the
        event hook executes the flush ~RDX_CC_EVENT_US later.  The
        fault hook is still consulted so DROPPED_FLUSH faults bite
        this path exactly like the blocking one.  ``sync`` is the QP
        that posted the doorbell -- the codeflow's own, or a forest
        relay's -- so hb attribution follows the bytes.  ``waited``
        marks the flush as a QP ordering point for the hb graph: True
        on the raise path (the raise barrier blocks on this effect),
        False on the deferred lowering path, which must order nothing.
        """
        _, dropped, _ = sync._consult_hook("cc_event", addr, None)
        if self.config.hb_check and not dropped:
            hb.emit(
                self.sim, "hb.flush.post",
                qp=sync.qp.qpn, node=sync.qp.rnic.host.name,
                target=codeflow.sandbox.host.name, addr=addr, length=8,
            )
        yield params.RDX_CC_EVENT_US
        if not dropped:
            codeflow.sandbox.host.cache.flush(addr, 8)
            sync.cc_count += 1
            if self.config.hb_check:
                hb.emit(
                    self.sim, "hb.flush",
                    qp=sync.qp.qpn, node=sync.qp.rnic.host.name,
                    target=codeflow.sandbox.host.name, addr=addr, length=8,
                    waited=waited,
                )

    def _prepare_leg(
        self, codeflow: CodeFlow, program, span, errors: list, images: dict
    ) -> Generator:
        """One concurrent Phase-0 prepare; collects instead of raising
        so sibling legs are never stranded as failed background
        processes (the first collected error aborts the broadcast)."""
        try:
            entry = yield from self.control_plane.prepare_for(
                codeflow, program, parent_span=span
            )
        except ReproError as err:
            errors.append(err)
            return
        try:
            # Pre-link while no bubble is up: warms the linked-image
            # cache so the in-window deploy leg skips relocation
            # rewriting *and* the stub rendezvous.  Best-effort -- a
            # link error here re-surfaces inside the leg, where the
            # per-target failure machinery owns it.
            linked = yield from codeflow.link_code(entry.binary, parent_span=span)
        except ReproError:
            pass
        else:
            # Keep the linked image for the plan: a relayed leg
            # forwards exactly these bytes (the chained WR list) from
            # the parent sandbox, never re-linking on the control CPU.
            # The images live and die with this broadcast -- a leg
            # must never find one it did not link itself.
            images[codeflow.sandbox.name] = linked

    # -- rdx_broadcast -----------------------------------------------------------

    def broadcast(
        self,
        programs: Sequence[BpfProgram],
        hook_name: str,
        dependency_order: Optional[Sequence[int]] = None,
        use_bbu: bool = True,
        verify: bool = True,
        allow_partial: bool = False,
        deadline_us: Optional[float] = None,
        health: Optional[HealthDetector] = None,
        record_intent: bool = True,
        tenant: str = "",
        coordinator=None,
    ) -> Generator:
        """Deploy ``programs[i]`` to ``codeflows[i]`` transactionally.

        ``dependency_order`` lists group indices in the order bubbles
        must be lowered (callees before callers); default is reverse
        group order.  Programs must already be prepared (validated +
        compiled) or preparable; linking happens per target.

        ``verify`` reads every installed image back and checks its
        trailing CRC, so silent payload corruption (torn or bit-flipped
        writes) fails the leg instead of crashing the data path later.
        ``deadline_us`` bounds each target's leg (default
        :data:`repro.params.BROADCAST_TARGET_DEADLINE_US`); a crashed
        target exhausts its transport retries or hits the deadline,
        either way becoming a per-target failure.  On any failure the
        default is transactional abort (succeeded legs rolled back,
        :class:`~repro.errors.BroadcastAborted` raised after bubbles
        drop); ``allow_partial=True`` keeps surviving targets live and
        marks the result ``degraded``.

        With a ``health`` detector attached, targets whose lease is
        SUSPECT or DEAD fail their legs *immediately* -- no bubble
        rises on them and no per-leg deadline burns down waiting on a
        host the lease layer already knows is sick.  ``record_intent``
        journals the whole broadcast as one WAL transaction (INTEND
        before any bubble rises, COMMIT listing exactly the legs that
        kept the new logic).

        The deploy and (unordered) lower phases walk one forest of
        the targets (:class:`_FanoutPlan`).  By default every target
        is a root, served by the control plane; with
        ``config.tree_broadcast`` set the forest has degree
        ``config.tree_degree`` and
        already-updated sandboxes relay the chained WR list to their
        children, so the bubble window grows ~O(log N) instead of
        serializing N legs through the control RNIC.  A
        ``coordinator`` (see :class:`repro.core.shard.ShardCoordinator`)
        makes this group one shard of a larger cross-shard transaction:
        bubbles are held until every shard votes, and a sibling shard's
        failure aborts this shard's clean legs too.
        """
        if len(programs) != len(self.codeflows):
            raise DeployError(
                f"broadcast needs one program per target "
                f"({len(programs)} != {len(self.codeflows)})"
            )
        order = list(dependency_order or range(len(self.codeflows) - 1, -1, -1))
        if sorted(order) != list(range(len(self.codeflows))):
            raise ConsistencyError("dependency_order must permute the group")
        if deadline_us is None:
            deadline_us = params.BROADCAST_TARGET_DEADLINE_US

        plane = self.control_plane
        plane._check_alive()

        result = BroadcastResult(
            group_size=len(self.codeflows), started_us=self.sim.now
        )
        result.outcomes = [
            TargetOutcome(target=cf.sandbox.name, program=prog.name)
            for cf, prog in zip(self.codeflows, programs)
        ]

        txn = None
        if record_intent:
            legs = []
            for codeflow, program in zip(self.codeflows, programs):
                plane.journal.record_program(program)
                legs.append(
                    {
                        "target": codeflow.sandbox.name,
                        "hook": hook_name,
                        "name": program.name,
                        "tag": program.tag(),
                    }
                )
            txn = plane._mint_txn("broadcast")
            plane.journal.begin(
                txn, "broadcast", plane.epoch, hook=hook_name, legs=legs
            )
        try:
            result = yield from self._broadcast_body(
                programs, hook_name, order, dependency_order is not None,
                use_bbu, verify, allow_partial, deadline_us, health, result,
                txn, tenant, coordinator,
            )
        except BaseException as err:
            # A crashed incarnation records nothing: the dangling INTEND
            # is exactly what tells the reconciler this work may be
            # half-applied.
            if txn is not None and not plane.crashed:
                plane.journal.abort(txn, reason=str(err))
            raise
        if txn is not None:
            plane.journal.commit(
                txn,
                hook=hook_name,
                legs=[
                    leg
                    for leg, outcome in zip(legs, result.outcomes)
                    if outcome.ok
                ],
            )
        return result

    def _broadcast_body(
        self, programs, hook_name, order, ordered, use_bbu, verify,
        allow_partial, deadline_us, health, result, txn, tenant="",
        coordinator=None,
    ) -> Generator:
        plane = self.control_plane
        obs = self.control_plane.obs
        obs.counter("rdx.broadcast.count").inc()
        obs.counter("rdx.broadcast.targets").inc(len(self.codeflows))
        obs.histogram("rdx.broadcast.fanout").observe(len(self.codeflows))
        with obs.span(
            "rdx.broadcast", group_size=len(self.codeflows), bbu=use_bbu,
            tenant=tenant,
        ) as span:
            # Phase 0: make sure every program is validated + compiled
            # *before* any bubble rises -- the registry's "validate once,
            # deploy anywhere" keeps compilation off the consistency
            # window entirely.  On the pipelined path the legs run
            # concurrently on the control plane's multi-core CPU pool;
            # single-flight dedup in ``prepare`` collapses simultaneous
            # misses on one key to a single validate+JIT.
            images: dict = {}
            if self.config.pipelined_deploy:
                prep_errors: list[BaseException] = []
                preps = [
                    self.sim.spawn(
                        self._prepare_leg(
                            codeflow, program, span, prep_errors, images
                        ),
                        name=f"prepare:{codeflow.sandbox.name}",
                    )
                    for program, codeflow in zip(programs, self.codeflows)
                ]
                if preps:
                    yield self.sim.all_of(preps)
                if prep_errors:
                    raise prep_errors[0]
            else:
                for program, codeflow in zip(programs, self.codeflows):
                    yield from self.control_plane.prepare_for(
                        codeflow, program, parent_span=span
                    )
            plan = _FanoutPlan.build(
                self.config, len(self.codeflows), order, ordered, images
            )
            if txn is not None:
                plane.journal.phase(txn, "prepared")

            # Phase 0.5: graceful degradation.  Targets whose lease is
            # not ALIVE fail here, for free -- no per-leg timeout is
            # ever paid for a host the detector already suspects.
            # Lease state is local, so this phase costs zero time.
            for codeflow, outcome in zip(self.codeflows, result.outcomes):
                lease = health.leases.get(outcome.target) if health else None
                if lease is not None and lease.health is not TargetHealth.ALIVE:
                    outcome.fail(
                        HostUnreachable(
                            f"{outcome.target}: lease is {lease.health.value}"
                        )
                    )
                    obs.counter(
                        "rdx.broadcast.lease_skips",
                        target=self._label(outcome.target, self.shard),
                    ).inc()

            # Phase 1: raise every bubble in parallel.  A target whose
            # bubble cannot rise (crashed, partitioned) fails its leg
            # here and is skipped by phase 2.
            if use_bbu:
                raises = [
                    self.sim.spawn(
                        self._guarded_bubble(cf, outcome),
                        name=f"bubble+{i}",
                    )
                    for i, (cf, outcome) in enumerate(
                        zip(self.codeflows, result.outcomes)
                    )
                    if not outcome.error
                ]
                if raises:
                    yield self.sim.all_of(raises)
            result.bubble_raised_us = self.sim.now
            if txn is not None:
                plane.journal.phase(txn, "bubbled")

            # Phases 2-3 are exception-safe: whatever happens during
            # the deploy fan-out, every raised bubble is lowered before
            # an error escapes.  A bubble left raised would buffer the
            # target's requests forever -- the §2.2 agent-lockout
            # pathology BBU exists to avoid.
            try:
                # Phase 2: walk the forest of active legs.  The control
                # plane seeds the roots; each updated sandbox then
                # relays the chained WR list to its children, so depth
                # -- and the bubble window -- grows with log(N)
                # instead of N/pipeline.
                active = [
                    index
                    for index, outcome in enumerate(result.outcomes)
                    if not outcome.error
                ]

                def deploy(pos: int, via: Optional[CodeFlow]) -> Generator:
                    index = active[pos]
                    codeflow = self.codeflows[index]
                    if via is None and pos >= plan.degree:
                        # A leg that failed mid-fanout never strands
                        # its subtree: the children are served by the
                        # control plane instead.
                        self._relay_fallback(codeflow, "parent-failed")
                    return self._deploy_leg(
                        codeflow, programs[index], result.outcomes[index],
                        plan.images.get(codeflow.sandbox.name), via,
                        hook_name, span, verify, deadline_us, fenced=use_bbu,
                    )

                yield from self._walk(plan, active, "deploy", deploy)
                result.deploys_done_us = self.sim.now
                if txn is not None:
                    plane.journal.phase(txn, "deployed")
                result.reports = [
                    outcome.report
                    for outcome in result.outcomes
                    if outcome.report is not None
                ]

                failures = result.failed_targets
                survivors = [o.target for o in result.outcomes if o.ok]
                if coordinator is not None:
                    # Cross-shard 2PC: report this shard's tally and
                    # hold every bubble until the coordinator's
                    # verdict.  All-or-nothing must span shards -- a
                    # shard whose legs are all clean still rolls back
                    # when a sibling shard failed.
                    decision = yield from coordinator.vote(
                        self.shard or "shard0",
                        ok=survivors,
                        failed=[o.target for o in failures],
                    )
                    if txn is not None:
                        plane.journal.phase(txn, f"decided-{decision}")
                else:
                    decision = commit_rule(
                        len(survivors), len(failures), allow_partial
                    )
                if decision == "abort":
                    yield from self._abort(programs, result)
                elif failures:
                    result.degraded = True
                    obs.counter("rdx.broadcast.degraded").inc()
            finally:
                # Phase 3: lower the bubbles.  Runs on the failure path
                # too, so no reachable target is left buffering; a
                # crashed target's lower is best-effort and counted.
                # A crashed *control plane* runs no cleanup at all --
                # dead processes do not lower bubbles; the raised flags
                # it strands are the reconciler's to repair.
                if use_bbu and not plane.crashed:
                    flushes = []
                    lowerable = [
                        index
                        for index in plan.order
                        # A fenced leg never raised its bubble, and a
                        # stale writer has no business lowering the
                        # successor's.
                        if result.outcomes[index].error_kind
                        != "StaleEpochError"
                    ]
                    if plan.sequential:
                        for index in lowerable:
                            yield from self._lower_leg(
                                self.codeflows[index], flushes
                            )
                    else:
                        # Drop the bubbles down the same-shaped forest
                        # the deploys used: linear lowers through the
                        # control RNIC would hand the window right
                        # back its O(N) term.  Each lowering chain
                        # rides its parent's QP (relay syncs are
                        # already warm from the deploy phase).

                        def lower(pos: int, via: Optional[CodeFlow]) -> Generator:
                            codeflow = self.codeflows[lowerable[pos]]
                            sync = None
                            if via is not None and not via.sandbox.host.crashed:
                                sync = self._relay_sync(via, codeflow)
                            return self._lower_leg(codeflow, flushes, sync)

                        yield from self._walk(plan, lowerable, "lower", lower)
                    if flushes:
                        # The trailing flushes overlap the lowering
                        # writes; only the last target's ~2us flush can
                        # extend the window past its lowering write.
                        yield self.sim.all_of(flushes)
        result.bubble_lowered_us = self.sim.now
        result.bubble_window_us = result.bubble_lowered_us - result.bubble_raised_us
        # The window is only known after the span closed; stamp it onto
        # the finished span so trace reconstruction can report it.
        span.attrs["bubble_window_us"] = result.bubble_window_us
        # BBU buffering cost proxy: how long every target held requests.
        obs.histogram("rdx.broadcast.bubble_window_us").observe(
            result.bubble_window_us
        )
        if result.aborted:
            failures = result.failed_targets
            if failures:
                first = failures[0]
                detail = (
                    f"(first: {first.target}: "
                    f"{first.error_kind}: {first.error})"
                )
            else:
                # Every local leg was clean; the coordinator aborted
                # on a sibling shard's behalf.
                detail = "(cross-shard abort: a sibling shard failed)"
            raise BroadcastAborted(
                f"broadcast aborted: {len(failures)}/{result.group_size} "
                f"targets failed {detail}",
                result=result,
            )
        return result

    # -- the fan-out ----------------------------------------------------------

    def _walk(self, plan: _FanoutPlan, members, kind: str, visit) -> Generator:
        """Run ``visit(pos, handed)`` at every position of the forest
        over ``members`` (group indices, in position order).

        One rule: a root starts at once, handed None; a child starts
        when its parent's visit ends, handed whatever that visit
        returned -- or None if it raised, so a subtree is never
        stranded behind a visit that will not finish.  A root waits on
        nothing (no event, no wake-up): with every position a root
        this *is* the hub-and-spoke spawn list.
        """
        size = len(members)
        ready = {pos: self.sim.event() for pos in range(plan.degree, size)}

        def node(pos: int) -> Generator:
            handed = (yield ready[pos]) if pos in ready else None
            result = None
            try:
                result = yield from visit(pos, handed)
            finally:
                for child in plan.children(pos, size):
                    ready[child].succeed(result)

        nodes = [
            self.sim.spawn(
                node(pos),
                name=f"{kind}:{self.codeflows[members[pos]].sandbox.name}",
            )
            for pos in range(size)
        ]
        if nodes:
            yield self.sim.all_of(nodes)

    # -- per-target legs ------------------------------------------------------

    def _guarded_bubble(self, codeflow, outcome) -> Generator:
        """Fence, then raise: an 8-byte epoch read precedes the bubble
        write so a stale control plane never raises a bubble on (let
        alone deploys to) a successor's target.  Fence failures are
        per-leg failures, feeding the normal abort/partial machinery;
        the no-BBU path is fenced by ``CodeFlow._execute`` instead."""
        try:
            yield from codeflow.check_fence()
            yield from self._write_bubble(codeflow, 1, codeflow.sync)
        except ReproError as err:
            self._leg_failed(outcome, err)

    def _leg_failed(self, outcome: TargetOutcome, err: ReproError) -> None:
        outcome.fail(err)
        self.control_plane.obs.counter(
            "rdx.broadcast.target_failures", kind=type(err).__name__
        ).inc()

    def _deploy_leg(
        self, codeflow, program, outcome, linked, via, hook_name, span,
        verify, deadline_us, fenced,
    ) -> Generator:
        """One target's deploy under a deadline; never raises.

        The deadline starts when the leg is unblocked, so forest depth
        never eats into a leg's budget.  Returns what the leg hands
        down the forest: the codeflow, for the children to relay
        through, when its image committed; None -- they fall back to
        the control plane -- when it did not.
        """
        try:
            inner = self.sim.spawn(
                self._deploy_target(
                    codeflow, program, linked, via, hook_name, span, verify,
                    fenced,
                ),
                name=f"inject:{outcome.target}",
            )
            timer = self.sim.timeout(deadline_us)
            yield self.sim.any_of([inner, timer])
            if not inner.triggered:
                inner.interrupt("broadcast deadline expired")
                raise DeadlineExceeded(
                    f"{outcome.target}: deploy leg exceeded {deadline_us}us"
                )
            outcome.report = inner.value
            outcome.ok = True
            return codeflow
        except ReproError as err:
            self._leg_failed(outcome, err)

    def _deploy_target(
        self, codeflow, program, linked, via, hook_name, span, verify, fenced,
    ) -> Generator:
        """Pick the route for one leg: through ``via`` (the forest
        parent) when there is one and it can be used, else -- and as
        the fallback when the relay *path* breaks -- the same deploy
        step over the control plane's own QP.  ``linked`` is the
        plan's Phase-0 image for this target, None when it has none."""
        obs = self.control_plane.obs
        with obs.span(
            "rdx.broadcast.target", parent=span,
            target=codeflow.sandbox.name, program=program.name,
            relay=via.sandbox.name if via is not None else "",
        ) as child:
            report = None
            if via is not None:
                if linked is None:
                    # Phase 0 never produced an image to forward (link
                    # error re-surfacing); only the control plane can
                    # serve this leg.
                    self._relay_fallback(codeflow, "no-prelink")
                elif via.sandbox.host.crashed:
                    self._relay_fallback(codeflow, "relay-crashed")
                else:
                    try:
                        # The bubble-raise fence rode the control
                        # plane's QP; this route fences in its own
                        # right.
                        report = yield from self._deploy_step(
                            codeflow, program, linked, hook_name, child,
                            verify, fenced=False, via=via,
                        )
                    except RdmaError as err:
                        # The relay *path* is broken (crashed parent
                        # host, dead link): direct delivery from the
                        # shard still owes this target its update.
                        # Deploy-semantics failures (CAS conflict,
                        # CRC-failed verify, stale epoch) propagate --
                        # they would fail identically on any path.
                        self._relay_fallback(codeflow, type(err).__name__)
            if report is None:
                report = yield from self._deploy_step(
                    codeflow, program, linked, hook_name, child, verify,
                    fenced,
                )
            # Delta eligibility is decided per target: each leg holds
            # its own baseline (or none -- fresh targets, post-reboot
            # targets, and diverged layouts all fall back to full), so
            # one broadcast routinely mixes both modes.
            obs.counter(
                "rdx.broadcast.legs",
                mode=report.mode,
                target=self._label(codeflow.sandbox.name, self.shard),
            ).inc()
            child.attrs["mode"] = report.mode
        return report

    def _deploy_step(
        self, codeflow, program, linked, hook_name, span, verify, fenced,
        via=None,
    ) -> Generator:
        """Fence, ``deploy_prog``, verify-or-undo -- over one route.

        ``via=None`` is the control plane's own QP and CPU.
        ``via=parent`` deploys *through* an already-updated sandbox:
        the parent's host forwards the pre-linked chained WR list
        (image chunks + descriptor + commit CAS) over the cached relay
        QP and pays the dispatch on its own CPU; the control plane's
        CPU and RNIC are never touched.  Such a leg is fenced in its
        own right (``fenced=False``) -- the 8-byte epoch read rides
        the relay QP, so a target owned by a newer incarnation refuses
        relayed bytes exactly as it refuses direct ones
        (:class:`~repro.errors.StaleEpochError`, never retried).

        ``linked=None`` (no Phase-0 image on the plan) goes through
        ``inject``, which links and then runs the same ``deploy_prog``.
        Deploying the Phase-0 image as-is matters on the relay arms:
        re-running ``inject`` would repeat validate/JIT/link *inside*
        the bubble window whenever the prepare caches overflow
        (N > cache capacity) -- the window must only move bytes.
        """
        if via is not None:
            relay = self._relay_sync(via, codeflow)
            direct, codeflow.sync = codeflow.sync, relay
            codeflow.dispatch_cpu = via.sandbox.host.cpu
        try:
            if linked is None:
                report = yield from self.control_plane.inject(
                    codeflow, program, hook_name, parent_span=span,
                    record_intent=False,  # broadcast txn owns the WAL entry
                    fenced=fenced,  # _guarded_bubble fenced this leg already
                )
            else:
                if via is None:
                    self.control_plane._check_alive()
                if not fenced:
                    yield from codeflow.check_fence()
                report = yield from codeflow.deploy_prog(
                    program, linked, hook_name, parent_span=span, fenced=True,
                )
            if verify:
                try:
                    yield from self._verify_image(codeflow, program)
                except ConsistencyError:
                    # The hook flip already committed onto a corrupt
                    # image -- undo *this* target immediately (the
                    # abort path only reverts legs that succeeded).
                    yield from self._undo(codeflow, program)
                    raise
        finally:
            if via is not None:
                codeflow.sync = direct
                codeflow.dispatch_cpu = None
                if self.config.hb_check:
                    # The leg's status report (success or failure) is
                    # the return wire message: the control plane only
                    # acts on the outcome -- undo, fallback, commit --
                    # after the relay told it what landed.
                    hb.emit_handoff(self.sim, relay.qp, direct.qp)
        return report

    # -- relay routes ---------------------------------------------------------

    def _relay_sync(self, parent: CodeFlow, codeflow: CodeFlow) -> RemoteSync:
        """The RemoteSync carrying ``parent`` host -> ``codeflow`` target.

        Built lazily (QP pair wired parent-host-side, like any
        initiator), then cached for the life of the group.  Epoch and
        fault hook are refreshed per use: fencing and armed faults
        must bite relayed ops exactly as they bite the direct path.
        """
        from repro.core.control_plane import _pd_of

        key = (parent.sandbox.name, codeflow.sandbox.name)
        sync = self._relay_syncs.get(key)
        if sync is None:
            parent_ctx = open_device(parent.sandbox.host)
            local_qp = parent_ctx.create_qp(
                parent_ctx.alloc_pd(), parent_ctx.create_cq()
            )
            target_ctx = open_device(codeflow.sandbox.host)
            target_qp = target_ctx.create_qp(
                _pd_of(codeflow.sandbox), target_ctx.create_cq()
            )
            connect_qps(local_qp, target_qp)
            sync = RemoteSync(
                self.sim, local_qp, codeflow.manifest.rkey,
                codeflow.sandbox, retry=codeflow.sync.retry,
            )
            self._relay_syncs[key] = sync
        sync.hb_epoch = codeflow.sync.hb_epoch
        sync.fault_hook = codeflow.sync.fault_hook
        sync.retry = codeflow.sync.retry
        if self.config.hb_check:
            # The relay command (forwarded WR chain / lowering order)
            # is a wire message from the control plane: it carries a
            # happens-before edge from whatever the control plane had
            # already confirmed on this target's QP to everything the
            # relay posts next.
            hb.emit_handoff(self.sim, codeflow.sync.qp, sync.qp)
        return sync

    def _relay_fallback(self, codeflow, reason: str) -> None:
        self.control_plane.obs.counter(
            "rdx.broadcast.relay_fallback",
            target=self._label(codeflow.sandbox.name, self.shard),
            reason=reason,
        ).inc()

    def _verify_image(self, codeflow, program) -> Generator:
        """Read the installed image back and check its trailing CRC.

        Catches silent payload corruption (torn writes, bit flips) at
        deploy time, turning it into a per-target failure the abort
        path can undo -- instead of a data-path crash minutes later.
        """
        record = codeflow.deployed.get(program.name)
        if record is None or record.code_len < 8:
            return
        image = yield from codeflow.sync.read(record.code_addr, record.code_len)
        stored = int.from_bytes(image[-4:], "little")
        if zlib.crc32(image[:-4]) & 0xFFFFFFFF != stored:
            self.control_plane.obs.counter(
                "rdx.broadcast.verify_failed",
                target=self._label(codeflow.sandbox.name, self.shard),
            ).inc()
            raise ConsistencyError(
                f"{program.name} on {codeflow.sandbox.name}: image CRC "
                f"mismatch after deploy (torn or corrupt write)"
            )

    def _undo(self, codeflow, program) -> Generator:
        """Revert one target to its pre-broadcast image."""
        record = codeflow.deployed.get(program.name)
        if record is None:
            return
        if record.history:
            yield from RollbackManager(codeflow).rollback(program.name)
        else:
            # The fresh deploy never reached committed intent, so there
            # is nothing to journal about removing it.
            yield from codeflow.detach(program.name, record_intent=False)

    # -- abort path -----------------------------------------------------------

    def _abort(self, programs, result: BroadcastResult) -> Generator:
        """Undo every succeeded leg: all-or-nothing visibility.

        A target whose hook previously ran an older image rolls back to
        it; a fresh deploy (no history) is detached, reverting the hook
        to 0.  Undo on an unreachable target is best-effort -- counted,
        not fatal (its data path is down anyway).
        """
        result.aborted = True
        started = self.sim.now
        obs = self.control_plane.obs
        obs.counter("rdx.broadcast.abort").inc()
        for codeflow, program, outcome in zip(
            self.codeflows, programs, result.outcomes
        ):
            if not outcome.ok:
                continue
            record = codeflow.deployed.get(program.name)
            if record is None:
                continue
            had_history = bool(record.history)
            try:
                yield from self._undo(codeflow, program)
                outcome.rolled_back = had_history
                outcome.detached = not had_history
            except ReproError as err:
                obs.counter(
                    "rdx.broadcast.abort_failed",
                    target=self._label(outcome.target, self.shard),
                ).inc()
                outcome.error = f"abort undo failed: {err}"
        result.abort_us = self.sim.now - started
        obs.histogram("rdx.broadcast.abort_us").observe(result.abort_us)

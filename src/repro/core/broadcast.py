"""Collective CodeFlow: transactional cluster-wide updates (paper §4).

``rdx_broadcast`` treats a group update as one distributed transaction
whose write set spans every target hook (inspired by RDMA distributed
transactions).  Consistency comes from **Big Bubble Update (BBU)**:

1. stage every image where no hook points yet -- under the verifier's
   charge when the broadcast compiles it -- and raise the *bubble flag*
   on each target (data paths buffer incoming requests instead of
   executing mixed logic): as its stage lands, or, when the verdict
   was still pending, in one fenced raise walk once it is in,
2. flip each hook to its staged image, one CAS once its bubble is up,
3. decide on the CAS answers, then lower the flags -- each once its
   own hook line is flushed -- releasing buffered requests.

Only steps 2 and 3 sit inside the window, and RDX moves a hook in
microseconds, so the bubble -- and therefore the request buffer --
stays tiny; the same scheme under an agent baseline would need to
buffer ~rate x window requests (§2.2 Obs 2's 1M-request example),
which is the ablation ``bench_ablate_bbu`` quantifies.

The transaction has an **abort path**: every target's stage runs under
its own deadline and collects its own outcome; if any leg fails (deploy
error, CRC-failed verify read-back, crashed/partitioned target,
deadline expiry) before anything flipped, the staged images are simply
given back; legs that *did* flip are rolled back to their prior image
-- all-or-nothing visibility -- and
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
    #: The leg's bubble raise was posted, so it may be up: only such a
    #: leg is lowered.
    raised: bool = False

    def fail(self, err: BaseException) -> None:
        self.ok = False
        self.error = str(err)
        self.error_kind = type(err).__name__


@dataclass
class BroadcastResult:
    """Timing + outcome of one collective update."""

    group_size: int
    started_us: float
    #: When the first bubble was up -- its raise's flush landed (with a
    #: staged leg's ``verify``, its read-back too): the oldest bubble's
    #: birth.
    first_raised_us: float = 0.0
    #: When the last raise's flush landed: the window opens.
    bubble_raised_us: float = 0.0
    #: When every flip's CQE was in: the commit decision is taken here,
    #: while the flips' hook-line flushes may still be landing.
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
    def bubble_hold_us(self) -> float:
        """How long the first-raised bubble buffered requests.  The
        window counts from the *last* raise; this counts from the first,
        so it includes how long Phase 1 kept early bubbles waiting."""
        return self.bubble_lowered_us - self.first_raised_us

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

    A broadcast makes three visits: stage, flip (under a pending
    verdict, a raise that flips each leg once its bubble is up) and
    lower.  Any list of positions one visit walks -- the legs of the
    stage phase, the staged legs of the flip phase, the legs still ok
    at the lower phase -- is a d-ary forest: the first
    ``degree`` positions are roots, served by the control plane itself,
    and position ``p`` hands on to positions
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
    #: relays are off: a hub-and-spoke leg goes through ``stage_for``,
    #: whose link-stage hit skips the stub rendezvous (letting
    #: flat legs deploy the Phase-0 image instead was measured: the
    #: N=13 window grows 54.79 -> 61.69 us).
    images: dict
    #: Group indices in the order sequential lowers drop their
    #: bubbles; an unordered lower walks the forest in group order.
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
        self, codeflow: CodeFlow, value: int, sync: RemoteSync, flushes: list
    ) -> Generator:
        """Set one bubble flag and flush it to the target's CPU: the
        flag as an install's ``tail`` (with its doorbell, one chain)
        whose flush joins ``flushes``, so the flush lands while the
        next flag goes out.  A raise's flush lands before its hook
        flips; lowering is the benign direction -- a stale "still
        raised" buffers a few more requests for ~2us -- so nothing
        waits on its flush but the window's end."""
        addr = codeflow.sandbox.bubble_addr
        flag = ((addr, pack_qword(value)),)
        yield from sync.install([], None, 0, 0, [(addr, 8)], tail=flag)
        # ``sync`` posted the flag -- the codeflow's own QP or a forest
        # relay's -- so hb attribution follows the bytes.
        flush = sync.flush_chained([(addr, 8)], waited=bool(value))
        flushes.append(
            self.sim.spawn(flush, name=f"bubble-flush:{codeflow.sandbox.name}")
        )

    def _lower_leg(
        self,
        codeflow: CodeFlow,
        flushes: list,
        sync: Optional[RemoteSync] = None,
        after=None,
    ) -> Generator:
        """One lowering, failure-isolated: a failed lower (unreachable,
        flaky) is counted, never fatal, and never strands a sibling.  A
        *relayed* lower (``sync`` riding a forest parent's QP) that
        fails retries once directly first -- a crashed relay must never
        leave its subtree buffering.  ``after`` is the leg's settle: the
        target runs unbuffered only once its own hook line was flushed,
        and a settle that failed leaves the bubble up, counted as a
        failed lower.  Returns the codeflow either way: the children
        keep relaying through this target."""
        try:
            if after is not None and not after.ok:
                yield after  # still flushing, or failed: then it raises
            yield from self._write_bubble(
                codeflow, 0, sync or codeflow.sync, flushes
            )
        except ReproError:
            if sync is not None:
                self._relay_returned(sync, codeflow.sync)
                if after is None or after.ok:
                    self._relay_fallback(codeflow, "lower")
                    return (yield from self._lower_leg(codeflow, flushes))
            self.control_plane.obs.counter(
                "rdx.broadcast.bubble_lower_failed",
                target=self._label(codeflow.sandbox.name, self.shard),
            ).inc()
            return codeflow
        if sync is not None:
            self._relay_returned(sync, codeflow.sync)
        return codeflow

    def _compile(self, programs, span, images: dict) -> Generator:
        """Phase 0 on the pipelined arm: one prepare -- a *verdict* --
        spawned per distinct verdict key, and each leg's image linked
        into ``images`` once its key's JIT charge has run to its end,
        while the verifier's may still run.  Returns ``(verdicts,
        errors)``: the prepare processes, and the failures they and the
        key look-ups collect instead of raising, so no sibling is ever
        stranded as a failed background process (:meth:`_decided`)."""
        store = self.control_plane.artifacts
        keys: dict = {}
        errors: list = []
        for index, (codeflow, program) in enumerate(zip(self.codeflows, programs)):
            try:
                key = store.target_key(codeflow, program)
            except DeployError as err:
                errors.append(err)
                continue
            keys.setdefault(key, []).append(index)
        verdicts, links = [], []
        for key, members in keys.items():
            codeflow = self.codeflows[members[0]]
            name = codeflow.sandbox.name
            verdict = self.sim.spawn(
                self._verdict(codeflow, programs[members[0]], span, errors),
                name=f"prepare:{name}",
            )
            verdicts.append(verdict)
            links.append(
                self.sim.spawn(
                    self._prelink(key, verdict, members, span, images),
                    name=f"prelink:{name}",
                )
            )
        if links:
            yield self.sim.all_of(links)
        return verdicts, errors

    def _verdict(self, codeflow, program, span, errors: list) -> Generator:
        try:
            return (
                yield from self.control_plane.prepare_for(
                    codeflow, program, parent_span=span
                )
            )
        except ReproError as err:
            errors.append(err)
            return None

    def _prelink(self, key, verdict, members, span, images: dict) -> Generator:
        """Link ``key``'s image for each of ``members`` as soon as the
        artifact store says it may ship."""
        binary = yield from self.control_plane.artifacts.shippable(key, verdict)
        if binary is None:
            return
        links = [
            self.sim.spawn(
                self._link(self.codeflows[index], binary, span, images),
                name=f"link:{self.codeflows[index].sandbox.name}",
            )
            for index in members
        ]
        yield self.sim.all_of(links)

    def _link(self, codeflow, binary, span, images: dict) -> Generator:
        try:
            # Pre-link: warms the artifact store's link stage so the
            # leg skips relocation rewriting *and* the stub rendezvous.
            # Best-effort -- a link error here re-surfaces inside the
            # leg, where the per-target failure machinery owns it.
            linked = yield from codeflow.link_code(binary, parent_span=span)
        except ReproError:
            return
        # Keep the linked image for the plan: a relayed leg forwards
        # exactly these bytes (the chained WR list) from the parent
        # sandbox, never re-linking on the control CPU.  The images live
        # and die with this broadcast -- a leg must never find one it
        # did not link itself.
        images[codeflow.sandbox.name] = linked

    def _decided(self, verdicts, errors: list) -> Generator:
        """Wait for every verdict; the first collected failure aborts
        the broadcast."""
        if verdicts:
            yield self.sim.all_of(verdicts)
        if errors:
            raise errors[0]

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
        tenant: str = "",
        coordinator=None,
        delta: bool = False,
    ) -> Generator:
        """Deploy ``programs[i]`` to ``codeflows[i]`` transactionally.

        ``dependency_order`` lists group indices in the order bubbles
        must be lowered, one at a time (callees before callers); the
        serial arm lowers in reverse group order, and without an order
        the pipelined arm's lowers walk the forest.  Programs must
        already be prepared (validated + compiled) or preparable;
        linking happens per target.

        ``verify`` reads every staged image back and checks its
        trailing CRC before its hook flips, so silent payload corruption
        (torn or bit-flipped writes) fails the leg instead of crashing
        the data path later.  ``deadline_us`` bounds each target's leg
        (default :data:`repro.params.BROADCAST_TARGET_DEADLINE_US`); a
        crashed target exhausts its transport retries or hits the
        deadline, either way becoming a per-target failure.  On any
        failure the default is transactional abort (staged legs given
        back, flipped legs rolled back,
        :class:`~repro.errors.BroadcastAborted` raised after bubbles
        drop); ``allow_partial=True`` keeps surviving targets live and
        marks the result ``degraded``.

        With a ``health`` detector attached, targets whose lease is
        SUSPECT or DEAD fail their legs *immediately* -- no bubble
        rises on them and no per-leg deadline burns down waiting on a
        host the lease layer already knows is sick.  The whole broadcast
        is one WAL transaction (INTEND before any bubble rises, COMMIT
        listing exactly the legs that kept the new logic).  ``tenant``
        labels the trace root and each leg's deploy metrics.

        The stage (with its raise), flip and (unordered) lower phases
        walk one forest of the targets (:class:`_FanoutPlan`).  A leg
        that ships its Phase-0 image stages while the verifier still
        charges; the verdict gates the raise and the flip, so then the
        flip visit raises, and flips each leg once its raise landed.  By
        default every target is a root, served by the control plane;
        with ``config.tree_broadcast`` set the forest has degree
        ``config.tree_degree``: a staged sandbox relays its children
        the chained WR list, and the flips and lowers follow the same
        edges, so every phase grows ~O(log N) instead of serializing N
        legs through the control RNIC.  The commit decision needs only
        the flips' CAS answers, so it is taken as the last CQE is in;
        each lower then waits only for its own leg's hook-line flush,
        and a failed leg whose raise was posted is lowered directly,
        beside the walk.  The
        window holds the flips left at the last raise and the lowers:
        ``bubble_window_us`` runs from the last raise,
        ``bubble_hold_us`` from the first.  A
        ``coordinator`` (see :class:`repro.core.shard.ShardCoordinator`)
        makes this group one shard of a larger cross-shard transaction:
        bubbles are held until every shard votes, and a sibling shard's
        failure aborts this shard's clean legs too.

        ``delta`` lets a leg on the pipelined arm ship only the chunks
        that differ from its target's resident baseline.  Off, every
        leg installs its image whole, so a broadcast's legs cost the
        same whatever versions their targets have seen -- a hook's
        first redeploy, which has no baseline yet, included.
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
        ordered = dependency_order is not None
        obs = plane.obs
        with plane.intent("broadcast", hook=hook_name, legs=legs) as txn:
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
                # window entirely.  The pipelined arm compiles once per
                # verdict key and links every leg's image as soon as the
                # JIT's charge ends (:meth:`_compile`); a leg that ships its
                # Phase-0 image then stages under the verifier's charge,
                # since staged bytes are where no hook points.  The verdict
                # gates the raise and the flip, not the bytes.
                images: dict = {}
                verdicts, errors = [], []
                if self.config.pipelined_deploy:
                    verdicts, errors = yield from self._compile(programs, span, images)
                    if errors:
                        yield from self._decided(verdicts, errors)
                else:
                    for program, codeflow in zip(programs, self.codeflows):
                        yield from self.control_plane.prepare_for(
                            codeflow, program, parent_span=span
                        )
                plan = _FanoutPlan.build(
                    self.config, len(self.codeflows), order, ordered, images
                )
                if not plan.images:
                    # No leg ships a Phase-0 image (hub and spoke): each
                    # stages through ``stage_for``, whose prepare needs the
                    # verdict anyway.
                    yield from self._decided(verdicts, errors)
                #: A verdict still pending as the stage walk starts: the
                #: legs stage bare and a fenced raise-then-flip walk follows.
                pending = any(verdict.is_alive for verdict in verdicts)
                if not pending:
                    txn.phase("prepared")

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

                # Phases 1-3 are exception-safe: whatever happens once a
                # bubble may be up, every raised bubble is lowered before an
                # error escapes.  A bubble left raised would buffer the
                # target's requests forever -- the §2.2 agent-lockout
                # pathology BBU exists to avoid.
                #: group index -> plan staged and not yet flipped.
                staged: dict = {}
                live = [
                    index
                    for index, outcome in enumerate(result.outcomes)
                    if not outcome.error
                ]

                def stage(pos: int, via: Optional[CodeFlow]) -> Generator:
                    """One leg's stage; hands on the codeflow, or None when
                    the leg failed."""
                    index = live[pos]
                    codeflow = self.codeflows[index]
                    if via is None and pos >= plan.degree:
                        # A leg that failed mid-fanout never strands its
                        # subtree: the children are served by the control
                        # plane instead.
                        self._relay_fallback(codeflow, "parent-failed")
                    outcome = result.outcomes[index]
                    raise_, posted = (), []
                    if use_bbu and not pending:
                        raise_ = ((codeflow.sandbox.bubble_addr, pack_qword(1)),)
                    done = yield from self._deploy_leg(
                        outcome, deadline_us,
                        self._stage_route(
                            codeflow, programs[index],
                            plan.images.get(codeflow.sandbox.name), via,
                            hook_name, span, verify, delta, raise_, posted,
                        ),
                    )
                    outcome.raised = bool(raise_ and posted)
                    if done is None:
                        return None
                    done.tenant = tenant
                    staged[index] = done
                    if raise_ and not result.first_raised_us:
                        result.first_raised_us = self.sim.now
                    return codeflow

                try:
                    # Phase 1: walk the forest of the targets the lease
                    # layer kept: the control plane seeds the roots, each
                    # staged sandbox relays the chained WR list to its
                    # children -- depth grows with log(N) -- and a leg lands
                    # its image where no hook points, its bubble raise
                    # riding the stage's tail unless a verdict is pending.
                    #: group index -> the spawned flush of its hook line.
                    settles: dict = {}
                    yield from self._walk(plan, live, "stage", stage)
                    # An unsharded all-or-nothing broadcast whose stage
                    # failed a leg raises and flips nothing.
                    flipping = coordinator is not None or commit_rule(
                        len(staged), len(live) - len(staged), allow_partial
                    ) != "abort"
                    if pending:
                        try:
                            yield from self._decided(verdicts, errors)
                        except BaseException:
                            # No hook points at a staged image: give them
                            # back (a crashed plane leaves them to the
                            # reconciler).
                            if not plane.crashed:
                                for index in list(staged):
                                    self.codeflows[index].unstage(staged.pop(index))
                            raise
                        txn.phase("prepared")
                        if flipping:
                            yield from self._raise_and_flip(
                                plan, live, staged, result, use_bbu, settles
                            )
                    result.bubble_raised_us = result.bubble_raised_us or self.sim.now
                    if not result.first_raised_us:
                        # No bubble rose (no BBU, or every raise failed):
                        # the hold is the window.
                        result.first_raised_us = result.bubble_raised_us
                    txn.phase("bubbled")

                    # Phase 2: flip the legs left staged down the forest --
                    # a fenced commit CAS and the hook line's doorbell each.
                    # The decision needs only the CAS answers, so it is
                    # taken as the last CQE is in; each flip's flush runs on
                    # as its settle, which its own lower waits for (a CQE
                    # alone is no proof the target CPU sees the pointer).
                    if staged and flipping:
                        flippable = [index for index in live if index in staged]

                        def flip(pos: int, via: Optional[CodeFlow]) -> Generator:
                            index = flippable[pos]
                            return self._flip_leg(
                                index, staged.pop(index), result.outcomes[index],
                                via, settles,
                            )

                        yield from self._walk(plan, flippable, "flip", flip)
                    result.deploys_done_us = self.sim.now
                    txn.phase("deployed")
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
                        txn.phase(f"decided-{decision}")
                    else:
                        decision = commit_rule(
                            len(survivors), len(failures), allow_partial
                        )
                    if decision == "abort":
                        if settles:
                            # Rollback reads what each settle records.
                            yield self.sim.all_of(settles.values())
                        yield from self._abort(programs, result, staged)
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
                        # Only a posted raise can have landed: a leg the
                        # lease layer skipped, a fenced one (a stale writer
                        # has no business lowering the successor's) and one
                        # whose stage failed before its install went out
                        # raised nothing, and lowering a dead host's would
                        # spend its retry budget inside the window.
                        lowerable = {
                            index for index in live if result.outcomes[index].raised
                        }
                        if plan.sequential:
                            for index in plan.order:
                                if index in lowerable:
                                    yield from self._lower_leg(
                                        self.codeflows[index], flushes,
                                        after=settles.get(index),
                                    )
                        else:
                            # Drop the bubbles down the forest the stages,
                            # raises and flips walked: linear lowers through
                            # the control RNIC would hand the window right
                            # back its O(N) term.  Its roots flipped first,
                            # and each lowering chain rides the relay QP its
                            # leg's flip used.  A failed leg is no node: the
                            # control plane lowers it beside the walk, so a
                            # dead host's retry budget holds up no subtree.
                            forest = [
                                index for index in live if result.outcomes[index].ok
                            ]
                            beside = [
                                self.sim.spawn(
                                    self._lower_leg(self.codeflows[index], flushes),
                                    name=f"lower:{self.codeflows[index].sandbox.name}",
                                )
                                for index in live
                                if index in lowerable and not result.outcomes[index].ok
                            ]

                            def lower(pos: int, via: Optional[CodeFlow]) -> Generator:
                                index = forest[pos]
                                codeflow = self.codeflows[index]
                                sync = None
                                if via is not None and not via.sandbox.host.crashed:
                                    sync = self._relay_sync(via, codeflow)
                                return self._lower_leg(
                                    codeflow, flushes, sync, settles.get(index)
                                )

                            yield from self._walk(plan, forest, "lower", lower)
                            if beside:
                                yield self.sim.all_of(beside)
                        if flushes:
                            # The trailing flushes overlap the lowering
                            # writes; only the last target's ~2us flush can
                            # extend the window past its lowering write.
                            yield self.sim.all_of(flushes)
                if settles and not result.aborted:
                    # Every report is complete on return.  Each lower waited
                    # for its own settle, so only without a bubble does this
                    # wait at all.
                    yield self.sim.all_of(settles.values())
            result.bubble_lowered_us = self.sim.now
            result.bubble_window_us = result.bubble_lowered_us - result.bubble_raised_us
            # The window is only known after the span closed; stamp it onto
            # the finished span so trace reconstruction can report it.
            span.attrs["bubble_window_us"] = result.bubble_window_us
            span.attrs["bubble_hold_us"] = result.bubble_hold_us
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
            txn.detail["legs"] = [
                leg for leg, outcome in zip(legs, result.outcomes) if outcome.ok
            ]
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

    def _raise_and_flip(
        self, plan, live, staged: dict, result, use_bbu: bool, settles: dict
    ) -> Generator:
        """The walk of legs staged under a pending verdict: a root
        raises over the control plane's QP, a child over its parent's
        relay QP.  Each raise fences again -- its stage's fence is up to
        a verifier's charge old, and a successor may have taken the
        target over since -- and a leg whose raise fails is unstaged.
        A raised leg hands its children on and flips (:meth:`_flip_leg`,
        same route) once its *own* raise flush landed; without
        ``use_bbu`` the raise is that fence alone."""
        raisable = [index for index in live if index in staged]
        flips: list = []

        def flip(index, via, flushes: list) -> Generator:
            if flushes:
                yield flushes[0]  # a CQE alone is no proof it landed
            ready = self.sim.now
            yield from self._flip_leg(
                index, staged.pop(index), result.outcomes[index], via, settles
            )
            return ready

        def raise_(pos: int, via: Optional[CodeFlow]) -> Generator:
            index = raisable[pos]
            codeflow = self.codeflows[index]
            sync = None
            if via is not None and not via.sandbox.host.crashed:
                sync = self._relay_sync(via, codeflow)
            elif pos >= plan.degree:
                self._relay_fallback(codeflow, "parent-failed")
            flushes: list = []
            raised = yield from self._guarded_bubble(
                codeflow, result.outcomes[index], flushes, sync, use_bbu
            )
            if raised is None:
                codeflow.unstage(staged.pop(index))
                return None
            leg = flip(index, via, flushes)
            flips.append(self.sim.spawn(leg, name=f"flip:{codeflow.sandbox.name}"))
            return raised

        kind = "raise" if use_bbu else "fence"
        yield from self._walk(plan, raisable, kind, raise_)
        if flips:
            # With a bubble the window opens as the last one is up;
            # without, at the first flip, as after a stage walk.
            ready = yield self.sim.all_of(flips)
            result.first_raised_us = min(ready)
            result.bubble_raised_us = max(ready) if use_bbu else min(ready)

    def _guarded_bubble(
        self, codeflow, outcome, flushes: list,
        sync: Optional[RemoteSync] = None, bubble: bool = True,
    ) -> Generator:
        """Fence, then raise (unless not ``bubble``: the fence alone),
        so a stale control plane never raises a bubble on a successor's
        target; a failure fails the leg.
        ``sync`` is a forest parent's relay: the epoch READ and the flag
        chain both ride it, and a broken relay *path*
        (:class:`RdmaError`) retries once directly, the lower's rule.
        Returns the codeflow when the fence held (and the bubble is up),
        else None."""
        if sync is not None:
            direct, codeflow.sync = codeflow.sync, sync
        try:
            try:
                yield from codeflow.check_fence()
                if bubble:
                    outcome.raised = True
                    yield from self._write_bubble(
                        codeflow, 1, codeflow.sync, flushes
                    )
            finally:
                if sync is not None:
                    codeflow.sync = direct
                    self._relay_returned(sync, direct)
        except ReproError as err:
            if sync is None or not isinstance(err, RdmaError):
                self._leg_failed(outcome, err)
                return None
            self._relay_fallback(codeflow, "raise")
            return (
                yield from self._guarded_bubble(
                    codeflow, outcome, flushes, bubble=bubble
                )
            )
        return codeflow

    def _leg_failed(self, outcome: TargetOutcome, err: ReproError) -> None:
        outcome.fail(err)
        self.control_plane.obs.counter(
            "rdx.broadcast.target_failures", kind=type(err).__name__
        ).inc()

    def _deploy_leg(self, outcome, deadline_us, body: Generator) -> Generator:
        """Run one target's ``body`` under a deadline; never raises.
        The deadline starts when the leg is unblocked, so forest depth
        never eats into a leg's budget.  Returns what ``body`` returned,
        or None -- the failure recorded -- when it did not finish."""
        try:
            inner = self.sim.spawn(body, name=f"inject:{outcome.target}")
            timer = self.sim.timeout(deadline_us)
            yield self.sim.any_of([inner, timer])
            if not inner.triggered:
                inner.interrupt("broadcast deadline expired")
                raise DeadlineExceeded(
                    f"{outcome.target}: deploy leg exceeded {deadline_us}us"
                )
            outcome.ok = True
            return inner.value
        except ReproError as err:
            self._leg_failed(outcome, err)
            return None

    def _stage_route(
        self, codeflow, program, linked, via, hook_name, span, verify, delta,
        tail, posted,
    ) -> Generator:
        """Stage one leg through ``via`` (the forest parent) when it can
        be used, else -- and when the relay *path* breaks -- over the
        control plane's own QP.  ``linked`` is the plan's Phase-0 image
        for this target (None: none); ``tail`` and ``posted`` are
        :meth:`CodeFlow.stage_prog`'s.  Returns the staged plan."""
        obs = self.control_plane.obs
        with obs.span(
            "rdx.broadcast.target", parent=span,
            target=codeflow.sandbox.name, program=program.name,
            relay=via.sandbox.name if via is not None else "",
        ) as child:
            staged = None
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
                        staged = yield from self._relayed(
                            codeflow, via,
                            self._stage_step(
                                codeflow, program, linked, hook_name, child,
                                verify, delta, tail, posted, relayed=True,
                            ),
                        )
                    except RdmaError as err:
                        # The relay *path* is broken (crashed parent
                        # host, dead link): direct delivery from the
                        # shard still owes this target its update.
                        # Deploy-semantics failures (CRC-failed verify,
                        # stale epoch) propagate -- they would fail
                        # identically on any path.
                        self._relay_fallback(codeflow, type(err).__name__)
            if staged is None:
                staged = yield from self._stage_step(
                    codeflow, program, linked, hook_name, child, verify, delta,
                    tail, posted,
                )
            # Delta eligibility is decided per target (its own
            # baseline, or none), so one broadcast may mix both modes.
            mode = "full" if staged.owned else "delta"
            obs.counter(
                "rdx.broadcast.legs",
                mode=mode,
                target=self._label(codeflow.sandbox.name, self.shard),
            ).inc()
            child.attrs["mode"] = mode
        return staged

    def _stage_step(
        self, codeflow, program, linked, hook_name, span, verify, delta, tail,
        posted, relayed=False,
    ) -> Generator:
        """``stage_prog``, then verify-or-unstage -- over one route.

        A stage fences in its own right, under its dispatch: over a
        relay QP (``relayed``, forwarding the pre-linked chained WR
        list) the epoch read rides the relay, so a target owned by a
        newer incarnation refuses relayed bytes exactly as it refuses
        direct ones (:class:`~repro.errors.StaleEpochError`, never
        retried).  ``linked=None`` (no Phase-0 image on the plan) goes
        through ``stage_for``, which links first; staging the Phase-0
        image as-is keeps validate/JIT/link out of the walk when the
        prepare caches overflow.  A CRC-failed read-back unstages:
        nothing ever pointed at it.
        """
        plane = self.control_plane
        if linked is None:
            staged = yield from plane.stage_for(
                codeflow, program, hook_name, parent_span=span, delta=delta,
                tail=tail, posted=posted,
            )
        else:
            if not relayed:
                plane._check_alive()
            staged = yield from codeflow.stage_prog(
                program, linked, hook_name, parent_span=span, delta=delta,
                tail=tail, posted=posted,
            )
        if verify:
            try:
                yield from self._verify_image(codeflow, program, staged)
            except ConsistencyError:
                codeflow.unstage(staged)
                raise
        return staged

    def _flip_leg(self, index, plan, outcome, via, settles: dict) -> Generator:
        """Flip group member ``index``, failure-isolated, over ``via``'s
        relay QP when it is up: a relay *path* failure before the CAS
        ran retries once directly (``reason="flip"``), the lower's rule.
        The CAS's answer is the leg's vote; the flush of its hook line
        runs on as ``settles[index]``, which only its own lower waits
        for.  Returns the codeflow, or None when the leg failed --
        unstaged if its CAS never ran (a torn, committed chain is the
        reconciler's)."""
        codeflow = self.codeflows[index]
        relayed = via is not None and not via.sandbox.host.crashed
        settle: list = []
        try:
            try:
                step = codeflow.flip_prog(plan, settles=settle)
                yield from self._relayed(codeflow, via, step) if relayed else step
            except RdmaError:
                if not relayed or plan.prior is not None:
                    raise
                self._relay_fallback(codeflow, "flip")
                yield from codeflow.flip_prog(plan, settles=settle)
        except ReproError as err:
            if plan.prior is None:
                codeflow.unstage(plan)
            self._leg_failed(outcome, err)
            return None
        settles[index] = settle[0]
        outcome.report = plan.report  # complete once its settle ran
        return codeflow

    # -- relay routes ---------------------------------------------------------

    def _relayed(self, codeflow, via, step: Generator) -> Generator:
        """Run ``step`` with ``codeflow``'s sync and dispatch CPU on the
        ``via`` host -> ``codeflow`` relay, then report back."""
        relay = self._relay_sync(via, codeflow)
        direct, codeflow.sync = codeflow.sync, relay
        codeflow.dispatch_cpu = via.sandbox.host.cpu
        try:
            return (yield from step)
        finally:
            codeflow.sync = direct
            codeflow.dispatch_cpu = None
            self._relay_returned(relay, direct)

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

    def _relay_returned(self, relay: RemoteSync, direct: RemoteSync) -> None:
        """A relayed leg's status report (success or failure) is the
        return wire message: the control plane only acts on the
        outcome -- undo, fallback, commit, the next round -- after the
        relay told it what landed."""
        if self.config.hb_check:
            hb.emit_handoff(self.sim, relay.qp, direct.qp)

    def _relay_fallback(self, codeflow, reason: str) -> None:
        self.control_plane.obs.counter(
            "rdx.broadcast.relay_fallback",
            target=self._label(codeflow.sandbox.name, self.shard),
            reason=reason,
        ).inc()

    def _verify_image(self, codeflow, program, staged) -> Generator:
        """Read the staged image back and check its trailing CRC.

        Catches silent payload corruption (torn writes, bit flips)
        before the flip, turning it into a per-target failure that
        nothing ever pointed at -- instead of a data-path crash minutes
        later.
        """
        if len(staged.image) < 8:
            return
        image = yield from codeflow.sync.read(staged.code_addr, len(staged.image))
        stored = int.from_bytes(image[-4:], "little")
        if zlib.crc32(image[:-4]) & 0xFFFFFFFF != stored:
            self.control_plane.obs.counter(
                "rdx.broadcast.verify_failed",
                target=self._label(codeflow.sandbox.name, self.shard),
            ).inc()
            raise ConsistencyError(
                f"{program.name} on {codeflow.sandbox.name}: image CRC "
                f"mismatch after staging (torn or corrupt write)"
            )

    # -- abort path -----------------------------------------------------------

    def _abort(self, programs, result: BroadcastResult, staged: dict) -> Generator:
        """Undo every succeeded leg: all-or-nothing visibility.

        A leg that staged and never flipped is unstaged: no WR, since no
        hook ever pointed at it.  A flipped target whose hook previously
        ran an older image rolls back to it; a fresh deploy (no history)
        is detached, reverting the hook to 0.  Both fence first, so a
        target a newer control plane owns keeps what its owner put
        there.  Undo on an unreachable or fenced-out target is
        best-effort -- counted, not fatal.
        """
        result.aborted = True
        started = self.sim.now
        obs = self.control_plane.obs
        obs.counter("rdx.broadcast.abort").inc()
        for index, (codeflow, program, outcome) in enumerate(
            zip(self.codeflows, programs, result.outcomes)
        ):
            if index in staged:
                codeflow.unstage(staged.pop(index))
                continue
            if not outcome.ok:
                continue
            record = codeflow.deployed.get(program.name)
            if record is None:
                continue
            try:
                if record.history:
                    yield from codeflow.rollback(program.name)
                    outcome.rolled_back = True
                else:
                    # The fresh deploy never reached committed intent, so
                    # there is nothing to journal about removing it.
                    yield from codeflow.check_fence()
                    yield from codeflow._detach_body(program.name, record)
                    outcome.detached = True
            except ReproError as err:
                obs.counter(
                    "rdx.broadcast.abort_failed",
                    target=self._label(outcome.target, self.shard),
                ).inc()
                outcome.error = f"abort undo failed: {err}"
        result.abort_us = self.sim.now - started
        obs.histogram("rdx.broadcast.abort_us").observe(result.abort_us)

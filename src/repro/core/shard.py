"""Sharded control planes: one CodeFlow group, K fenced owners.

One control plane drives ~hundreds of targets comfortably; at rack
scale (1000+) its CPU pool and RNIC pipeline become the serial term in
every collective operation.  The fix is the standard one: partition
the group across K control-plane *shards*, each a full
:class:`~repro.core.control_plane.RdxControlPlane` owning its slice
under the existing epoch/lease/journal machinery -- fenced ownership,
crash handoff via the reconciler, per-shard WAL -- so nothing about
single-target correctness changes.

What does change is the transaction boundary: ``rdx_broadcast`` must
stay all-or-nothing across the *whole* group, not per shard.
:class:`ShardCoordinator` runs the cross-shard commit: every shard
deploys under its own bubbles, then votes with its leg tally and holds
its bubbles until the coordinator's verdict.  A sibling shard's
failure aborts a clean shard's legs too; quorum mode
(``allow_partial``) is decided on the *global* tally, so a shard whose
every leg died still keeps its group membership when the rest of the
rack survived.

:class:`ShardedGroup` is the drop-in collective handle: it slices the
program list along the partition, drives each shard's
:class:`~repro.core.broadcast.CodeFlowGroup` concurrently, and merges
the per-shard results into one :class:`~repro.core.broadcast.BroadcastResult`.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.errors import BroadcastAborted, ConsistencyError, DeployError, ReproError
from repro.obs import telemetry_of
from repro.core.broadcast import BroadcastResult, CodeFlowGroup, commit_rule


def partition(items: Sequence, shards: int) -> list[list]:
    """Split ``items`` into ``shards`` contiguous, near-equal slices.

    Contiguous (not round-robin) so a shard's targets are rack
    neighbours under the usual node-naming conventions, and so the
    partition is stable under group growth at the tail.  Never returns
    empty slices: the shard count is clamped to ``len(items)``.
    """
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    shards = min(shards, len(items)) or 1
    base, extra = divmod(len(items), shards)
    out = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return out


class ShardCoordinator:
    """Cross-shard commit: collect one vote per shard, decide once.

    The protocol is a two-phase commit with the per-shard broadcast
    bodies as participants: each shard calls :meth:`vote` after its
    deploy fan-out (bubbles still raised) and blocks until every
    expected shard has voted; the coordinator then applies
    :func:`~repro.core.broadcast.commit_rule` -- the rule an unsharded
    broadcast applies to its own legs -- to the *global* tally:

    * ``commit`` -- no leg failed anywhere,
    * ``degraded`` -- failures exist, ``allow_partial`` is on, and at
      least one leg survived globally (quorum mode),
    * ``abort`` -- otherwise: every shard rolls back its succeeded
      legs, including shards whose own tally was clean.

    The decision is journaled (one record, written before any voter is
    released) so a post-crash reconciler can tell a decided
    transaction from one that died mid-vote.  A shard that crashes
    before voting is handled by :meth:`forfeit` -- its silence counts
    as an all-failed tally, so surviving shards are never left holding
    their bubbles on a vote that cannot arrive.
    """

    def __init__(
        self,
        sim,
        shards: Sequence[str],
        allow_partial: bool = False,
        journal=None,
        epoch: int = 0,
        txn: str = "",
    ):
        if not shards:
            raise DeployError("coordinator needs at least one shard")
        if len(set(shards)) != len(shards):
            raise DeployError(f"duplicate shard names: {sorted(shards)}")
        self.sim = sim
        self.expected = set(shards)
        self.allow_partial = allow_partial
        self.journal = journal
        self.epoch = epoch
        self.txn = txn or "shard-commit"
        self.votes: dict[str, tuple[list, list]] = {}
        self.decision: Optional[str] = None
        self._decided = sim.event()
        self.obs = telemetry_of(sim)

    def vote(self, shard: str, ok: Sequence[str], failed: Sequence[str]) -> Generator:
        """One shard's tally; blocks until the global decision."""
        if shard not in self.expected:
            raise ConsistencyError(f"unexpected shard vote: {shard!r}")
        if shard in self.votes:
            raise ConsistencyError(f"shard {shard!r} voted twice")
        self.votes[shard] = (list(ok), list(failed))
        if set(self.votes) == self.expected:
            self._decide()
        if self.decision is None:
            yield self._decided
        return self.decision

    def forfeit(self, shard: str) -> None:
        """Count a shard that died before voting as all-failed.

        Called by the shard's driver when its broadcast body raised
        before reaching the vote barrier (prepare failure, crashed
        incarnation): the remaining shards must not block forever on a
        vote that will never be cast.
        """
        if shard in self.votes:
            return
        self.votes[shard] = ([], ["*"])
        if set(self.votes) == self.expected:
            self._decide()

    def _decide(self) -> None:
        if self.decision is not None:
            return
        ok = sum(len(tally[0]) for tally in self.votes.values())
        failed = sum(len(tally[1]) for tally in self.votes.values())
        self.decision = commit_rule(ok, failed, self.allow_partial)
        # One durable decision record before any voter is released:
        # the reconciler can always tell decided from died-mid-vote.
        if self.journal is not None:
            self.journal.begin(
                self.txn, "shard-commit", self.epoch,
                shards=sorted(self.votes),
            )
            if self.decision == "abort":
                self.journal.abort(
                    self.txn, reason=f"{failed} leg(s) failed across shards"
                )
            else:
                self.journal.commit(
                    self.txn, decision=self.decision, ok=ok, failed=failed
                )
        self.obs.counter(
            "rdx.shard.decisions", decision=self.decision
        ).inc()
        self._decided.succeed(self.decision)


class ShardedGroup:
    """K per-shard CodeFlow groups updated as one transaction."""

    def __init__(self, groups: Sequence[CodeFlowGroup]):
        if not groups:
            raise DeployError("empty sharded group")
        self.groups = list(groups)
        self.sim = self.groups[0].sim
        self.shards = [
            group.shard or f"shard{index}"
            for index, group in enumerate(self.groups)
        ]
        if len(set(self.shards)) != len(self.shards):
            raise DeployError(f"duplicate shard names: {sorted(self.shards)}")

    def __len__(self) -> int:
        return sum(len(group) for group in self.groups)

    @property
    def codeflows(self) -> list:
        return [cf for group in self.groups for cf in group.codeflows]

    def broadcast(
        self,
        programs: Sequence,
        hook_name: str,
        allow_partial: bool = False,
        **kwargs,
    ) -> Generator:
        """Cross-shard ``rdx_broadcast``: K concurrent shard bodies, one
        commit decision.

        ``programs`` is ordered like :attr:`codeflows` (shard 0's
        slice first).  Every other keyword is passed through to each
        shard's :meth:`~repro.core.broadcast.CodeFlowGroup.broadcast`,
        except ``dependency_order``, which is rejected: a lower order
        over the whole group cannot be kept by K independent shards.
        All-or-nothing and quorum semantics hold across the whole
        group; the merged result carries the union of outcomes and the
        *global* bubble window (first raise to last lower).
        """
        # Argument errors are settled here, before the coordinator or
        # any transaction exists: nothing is journaled, nothing counted.
        if len(programs) != len(self):
            raise DeployError(
                f"sharded broadcast needs one program per target "
                f"({len(programs)} != {len(self)})"
            )
        if kwargs.get("dependency_order") is not None:
            raise DeployError(
                "sharded broadcast cannot honour dependency_order: the "
                "shards lower their bubbles in K independent loops, so "
                "no order can hold across them"
            )
        lead = self.groups[0].control_plane
        coordinator = ShardCoordinator(
            self.sim,
            shards=self.shards,
            allow_partial=allow_partial,
            journal=lead.journal,
            epoch=lead.epoch,
            txn=lead._mint_txn("shard-commit"),
        )
        slices = []
        offset = 0
        for group in self.groups:
            slices.append(list(programs[offset : offset + len(group)]))
            offset += len(group)

        results: list[Optional[BroadcastResult]] = [None] * len(self.groups)
        errors: list[Optional[BaseException]] = [None] * len(self.groups)

        def shard_leg(index: int) -> Generator:
            shard = self.shards[index]
            try:
                results[index] = yield from self.groups[index].broadcast(
                    slices[index], hook_name,
                    allow_partial=allow_partial,
                    coordinator=coordinator,
                    **kwargs,
                )
            except BroadcastAborted as err:
                results[index] = err.result
                errors[index] = err
            except ReproError as err:
                # Failed before the vote barrier (prepare error, fenced
                # plane): forfeit so sibling shards are not stranded.
                errors[index] = err
            finally:
                coordinator.forfeit(shard)

        legs = [
            self.sim.spawn(shard_leg(index), name=f"shard:{self.shards[index]}")
            for index in range(len(self.groups))
        ]
        yield self.sim.all_of(legs)

        for index, err in enumerate(errors):
            if err is not None and not isinstance(err, BroadcastAborted):
                raise err

        merged = self._merge(results)
        if coordinator.decision == "abort" or merged.aborted:
            merged.aborted = True
            failures = merged.failed_targets
            detail = (
                f"(first: {failures[0].target}: {failures[0].error_kind})"
                if failures
                else "(cross-shard abort)"
            )
            raise BroadcastAborted(
                f"sharded broadcast aborted: {len(failures)}/{len(self)} "
                f"targets failed across {len(self.groups)} shards {detail}",
                result=merged,
            )
        return merged

    def _merge(
        self, results: Sequence[Optional[BroadcastResult]]
    ) -> BroadcastResult:
        present = [result for result in results if result is not None]
        merged = BroadcastResult(
            group_size=len(self),
            started_us=min(result.started_us for result in present),
        )
        for result in present:
            merged.outcomes.extend(result.outcomes)
            merged.reports.extend(result.reports)
            merged.aborted = merged.aborted or result.aborted
            merged.degraded = merged.degraded or result.degraded
            merged.abort_us += result.abort_us
        merged.first_raised_us = min(
            result.first_raised_us for result in present
        )
        merged.bubble_raised_us = min(
            result.bubble_raised_us for result in present
        )
        merged.deploys_done_us = max(
            result.deploys_done_us for result in present
        )
        merged.bubble_lowered_us = max(
            result.bubble_lowered_us for result in present
        )
        # The *group* consistency window: from the first bubble up
        # anywhere to the last bubble down anywhere.
        merged.bubble_window_us = (
            merged.bubble_lowered_us - merged.bubble_raised_us
        )
        return merged

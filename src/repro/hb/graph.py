"""The RDMA verbs ordering model as a happens-before graph.

Edges encoded (each a claim about what *actually* orders one-sided
ops -- see DESIGN.md §12 for the full rationale):

* **post -> land** -- an effect follows its own posting.
* **per-QP SQ FIFO** -- effects on one RC QP land in submission
  order (land_i -> land_{i+1} on the same QP).  This covers chain
  order within a doorbell batch too: chained WRs are consecutive
  entries in the same send queue.
* **fence** -- a fenced WR (the commit CAS of an install chain) lands
  after every earlier WR of its chain landed.  This is the verbs
  contract the install relies on, stated on its own rather than read
  off FIFO: a CAS chained *ahead* of its body gets no edge from it.
* **land(s) -> signaled completion** -- a CQE retires every WR it
  covers.  Only *signaled* completions exist as events: an unsignaled
  WR produces no ``hb.comp`` and therefore can never act as an
  ordering point (the instrumentation-gap fix in PR 5).
* **completion -> subsequent post (same QP)** -- the initiator-side
  ordering discipline: once it polled a CQE, everything it posts
  afterwards on that QP is ordered behind the completed op.  This is
  the *only* cross-time edge a completion buys; crucially it says
  nothing about remote CPU visibility (the completion fallacy).
* **flush post -> flush effect**, and **flush -> exec** for the
  latest flush covering the hook word an exec read: the exec observed
  post-flush bytes.
* **exec -> subsequent flush effect (same target)** -- the flush
  executes on the target's cache agent, serialized with the core, so
  an exec that retired before the flush effect is target-local-order
  before it.  This is what gives a delta deploy its grace period: old
  executions of the baseline extent are ordered before the successor's
  commit flush, hence before delta chunks posted after it.
* **ordering points accumulate** -- a QP's latest ordering point (a
  completion, a waited flush, a lock op, a handoff) is after its
  previous one: what the initiator learned stays learned.
* **waited flush effect -> subsequent post (same QP)** -- ONLY for
  flushes whose initiator blocked on the effect (``waited=True``: the
  blocking ``RemoteSync.cc_event``, and ``RemoteSync.flush_chained``
  after an install chain or a bubble raise): anything posted on that
  QP afterwards is causally behind the flush effect.  The broadcast's
  fire-and-forget lowering flush carries ``waited=False`` and never
  becomes an ordering point.
* **reads-from: installer -> exec** -- the WRITE/CAS land that put
  the observed pointer value into the hook qword happens before the
  exec that read it.
* **lock release -> next acquire** on the same lock word
  (``rdx_mutual_excl``), with acquire/release acting as ordering
  points on their QP.
* **relay handoff** -- a tree-broadcast relay command is a wire
  message from the control plane to the forwarding sandbox: the
  handoff joins the *sender* QP's latest ordering point (the polled
  completions the command is program-ordered behind) and becomes the
  relay QP's ordering point, so everything the relay posts afterwards
  is causally behind whatever the control plane had confirmed before
  shipping the command (e.g. the bubble raise a relayed lower must
  follow).
* **epoch fence** -- a successful CAS raising the target's epoch word
  to E is ordered after every event tagged with an older epoch that
  already landed: the fence is the point where the old owner's story
  ends and the new owner's begins.

Vector clocks are computed in one pass: events arrive in recorder
order and every edge points backwards in that order, so each event's
clock is the join of its predecessors' clocks plus its own
(actor, index) component.
"""

from __future__ import annotations

from typing import Optional

from repro.hb.events import HbEvent


def _join(vc: dict, other: dict) -> None:
    for actor, index in other.items():
        if vc.get(actor, 0) < index:
            vc[actor] = index


class HbGraph:
    """Happens-before relation over a list of :class:`HbEvent`."""

    def __init__(self, events: list[HbEvent]):
        self.events = events
        #: Per-event vector clocks: ``clock[seq][actor] -> index``.
        self.clocks: list[dict[str, int]] = []
        #: Per-event (actor, index) identity used by ordering queries.
        self.index: list[int] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        next_index: dict[str, int] = {}
        # The latest ordering point per QP (signaled comp / lock /
        # fence read) -- what a subsequent post is ordered after.
        ordering_point: dict[int, HbEvent] = {}
        posts: dict[int, HbEvent] = {}  # wr_id -> post
        lands: dict[int, HbEvent] = {}  # wr_id -> land
        last_land: dict[int, HbEvent] = {}  # qp -> latest land (SQ FIFO)
        chain_lands: dict[int, list[HbEvent]] = {}  # chain -> its lands
        flush_posts: dict[tuple[int, int], HbEvent] = {}  # (qp, addr) -> post
        flushes: dict[str, dict[tuple[int, int], HbEvent]] = {}  # target
        last_release: dict[tuple[str, int], HbEvent] = {}
        last_exec: dict[str, HbEvent] = {}  # target -> latest exec
        # (target, addr) -> {qword value -> installing land}
        installers: dict[tuple[str, int], dict[int, HbEvent]] = {}
        # target -> {epoch tag -> joined clock of tagged events}
        frontier: dict[str, dict[Optional[int], dict[str, int]]] = {}

        for event in self.events:
            preds: list[HbEvent] = []
            extra_clock: Optional[dict[str, int]] = None
            etype = event.etype
            qp = event.qp

            if etype == "post":
                point = ordering_point.get(qp)
                if point is not None:
                    preds.append(point)
                wr_id = event.data.get("wr_id")
                if wr_id is not None:
                    posts[wr_id] = event

            elif etype == "land":
                wr_id = event.data.get("wr_id")
                post = posts.get(wr_id)
                if post is not None:
                    preds.append(post)
                else:
                    # Synthetic traces may omit posts; the effect is
                    # still ordered behind the QP's ordering point.
                    point = ordering_point.get(qp)
                    if point is not None:
                        preds.append(point)
                prev = last_land.get(qp)
                if prev is not None:
                    preds.append(prev)
                last_land[qp] = event
                chain = event.data.get("chain")
                if chain is not None:
                    earlier = chain_lands.setdefault(chain, [])
                    if event.data.get("fence"):
                        preds.extend(earlier)
                    earlier.append(event)
                if wr_id is not None:
                    lands[wr_id] = event
                extra_clock = self._land_bookkeeping(
                    event, installers, frontier
                )

            elif etype == "comp":
                wr_id = event.data.get("wr_id")
                source = lands.get(wr_id) or posts.get(wr_id)
                if source is not None:
                    preds.append(source)
                self._advance(ordering_point, qp, event, preds)

            elif etype == "flush_post":
                point = ordering_point.get(qp)
                if point is not None:
                    preds.append(point)
                flush_posts[(qp, event.data["addr"])] = event

            elif etype == "flush":
                post = flush_posts.get((qp, event.data["addr"]))
                if post is not None:
                    preds.append(post)
                target = event.data.get("target")
                # The flush effect runs on the target's cache agent,
                # serialized with the core: the latest retired exec on
                # that target is local-order before it.
                exec_pred = last_exec.get(target)
                if exec_pred is not None:
                    preds.append(exec_pred)
                flushes.setdefault(target, {})[
                    (event.data["addr"], event.length)
                ] = event
                # Only a flush the initiator *blocked on* orders its
                # later posts (the fire-and-forget bubble flush lands
                # whenever it lands -- no waited flag, no edge).
                if event.data.get("waited"):
                    self._advance(ordering_point, qp, event, preds)

            elif etype == "handoff":
                # The relay command is ordered behind the sender QP's
                # latest ordering point, and everything the relay QP
                # posts afterwards is ordered behind the command.
                point = ordering_point.get(event.data.get("from_qp"))
                if point is not None:
                    preds.append(point)
                self._advance(ordering_point, qp, event, preds)

            elif etype == "lock":
                key = (event.data.get("target"), event.data["addr"])
                if event.data.get("op") == "acquire":
                    release = last_release.get(key)
                    if release is not None:
                        preds.append(release)
                else:
                    last_release[key] = event
                self._advance(ordering_point, qp, event, preds)

            elif etype == "exec":
                target = event.data.get("target")
                hook_addr = event.data.get("hook_addr")
                pointer = event.data.get("pointer")
                if hook_addr is not None:
                    by_value = installers.get((target, hook_addr))
                    if by_value and pointer in by_value:
                        preds.append(by_value[pointer])
                    flush = self._covering_flush(
                        flushes.get(target), hook_addr
                    )
                    if flush is not None:
                        preds.append(flush)
                if target is not None:
                    last_exec[target] = event

            actor = event.actor
            index = next_index.get(actor, 0) + 1
            next_index[actor] = index
            clock: dict[str, int] = {}
            for pred in preds:
                _join(clock, self.clocks[pred.seq])
            if extra_clock is not None:
                _join(clock, extra_clock)
            clock[actor] = index
            self.clocks.append(clock)
            self.index.append(index)
            if etype == "land":
                self._feed_frontier(event, clock, frontier)

    @staticmethod
    def _advance(ordering_point: dict, qp, event: HbEvent, preds: list) -> None:
        """Make ``event`` the QP's ordering point.  Ordering points
        accumulate: the new one is after the previous one too, so a
        completion polled after a waited flush (a spawned doorbell's)
        does not hide the flush from later posts."""
        point = ordering_point.get(qp)
        if point is not None:
            preds.append(point)
        ordering_point[qp] = event

    def _land_bookkeeping(
        self,
        event: HbEvent,
        installers: dict,
        frontier: dict,
    ) -> Optional[dict[str, int]]:
        """Track qword installs; return the epoch-fence join, if any."""
        data = event.data
        target = data.get("target")
        kind = data.get("kind")
        addr = data.get("addr")
        value = data.get("value")
        if value is not None and addr is not None:
            if kind == "WRITE" and event.length == 8:
                installers.setdefault((target, addr), {})[value] = event
            elif kind in ("CAS", "FADD") and data.get("success", True):
                installers.setdefault((target, addr), {})[value] = event
        # A successful CAS raising the epoch word is the fence: join
        # the clocks of everything the old owner(s) already landed.
        if (
            kind == "CAS"
            and data.get("label") == "epoch"
            and data.get("success")
        ):
            new_epoch = data.get("value")
            joined: dict[str, int] = {}
            for tag, tag_clock in frontier.get(target, {}).items():
                if tag is None or (new_epoch is not None and tag < new_epoch):
                    _join(joined, tag_clock)
            return joined or None
        return None

    @staticmethod
    def _feed_frontier(event: HbEvent, clock: dict, frontier: dict) -> None:
        target = event.data.get("target")
        if target is None:
            return
        tag = event.data.get("epoch")
        tag_clock = frontier.setdefault(target, {}).setdefault(tag, {})
        _join(tag_clock, clock)

    @staticmethod
    def _covering_flush(
        by_range: Optional[dict], addr: int
    ) -> Optional[HbEvent]:
        if not by_range:
            return None
        best: Optional[HbEvent] = None
        for (lo, length), flush in by_range.items():
            if lo <= addr < lo + max(length, 1):
                if best is None or flush.seq > best.seq:
                    best = flush
        return best

    # -- queries -----------------------------------------------------------

    def happens_before(self, a: HbEvent, b: HbEvent) -> bool:
        """Whether ``a`` happens before (or is) ``b``."""
        if a.seq == b.seq:
            return True
        return self.clocks[b.seq].get(a.actor, 0) >= self.index[a.seq]

    def concurrent(self, a: HbEvent, b: HbEvent) -> bool:
        return not self.happens_before(a, b) and not self.happens_before(b, a)

"""Remote synchronization primitives (paper §3.5, Table 1).

One-sided injection has three hazards, each owned by one primitive:

* **partial reads** of large objects -> :meth:`RemoteSync.tx` stages
  the full object first, then flips a single qword (the hook pointer)
  with an atomic CAS -- the data path either sees the old object or
  the complete new one.  :meth:`RemoteSync.install` is the same
  transaction as one WR chain, with the flush doorbells below riding
  behind its fenced CAS;
* **RNIC/CPU cache incoherence** -> :meth:`RemoteSync.cc_event` posts
  a flush descriptor to the sandbox's event hook, dropping the stale
  cache lines within ~2 us instead of waiting for eviction (Fig 5);
* **CPU vs RNIC races** -> :meth:`RemoteSync.lock` /
  :meth:`RemoteSync.unlock` implement a sandbox-level mutex over an
  RDMA CAS word that the local CPU honours through
  :meth:`repro.sandbox.sandbox.Sandbox.cpu_try_lock`.

All raw one-sided ops run under a :class:`~repro.core.retry.RetryPolicy`:
a transient transport failure (flaky link, unACKed WR against a host
that might just be slow) is retried with jittered backoff instead of
killing the caller.  A :attr:`fault_hook` lets the fault injector
(:mod:`repro.core.faults`) corrupt, drop, or fail individual ops
without the sync layer knowing about fault kinds.
"""

from __future__ import annotations

import random
import zlib
from functools import partial
from typing import Generator, Optional

from repro import params
from repro.core.retry import RetryPolicy
from repro.errors import RdmaError, TransientFault
from repro.hb import events as hb
from repro.obs import telemetry_of
from repro.rdma.cq import Completion, WcStatus
from repro.rdma.qp import QueuePair, WorkRequest, WrOpcode
from repro.rdma.rnic import RNIC_MTU_BYTES
from repro.sandbox.sandbox import Sandbox
from repro.sim.core import Simulator


class RemoteSync:
    """Sync-primitive toolkit bound to one (QP, sandbox) pair."""

    def __init__(
        self,
        sim: Simulator,
        qp: QueuePair,
        rkey: int,
        sandbox: Sandbox,
        retry: Optional[RetryPolicy] = None,
    ):
        self.sim = sim
        self.qp = qp
        self.rkey = rkey
        self.sandbox = sandbox
        self.retry = retry or RetryPolicy()
        #: Optional fault filter installed by
        #: :meth:`repro.core.faults.FaultInjector.attach`.  Called as
        #: ``hook(op, addr, data)`` before each raw op; returns ``None``
        #: or an action object with ``mangled`` (replacement payload),
        #: ``drop`` (skip the op) and ``error`` (exception to raise)
        #: attributes.
        self.fault_hook = None
        #: Jitter source for retry backoff, decorrelated per target
        #: by the sandbox name.
        self._rng = random.Random(zlib.crc32(sandbox.name.encode()))
        self.tx_count = 0
        self.cc_count = 0
        self.lock_acquires = 0
        #: The deployment epoch this sync's ops are issued under; set
        #: by :meth:`repro.core.codeflow.CodeFlow.stamp_epoch` and
        #: carried on every WR as an hb annotation so the race checker
        #: can tell a fenced-out writer's bytes from its successor's.
        self.hb_epoch: Optional[int] = None
        obs = telemetry_of(sim)
        self._obs = obs
        #: The switch this layer branches on per WR, read once.
        self._hb = params.config_of(sim).hb_check
        #: Pipelined-path instrumentation (resolved once; hot path).
        self._m_chain_wrs = obs.histogram("rdx.deploy.wrs_per_doorbell")
        self._m_inflight = obs.histogram("rdx.deploy.inflight_depth")
        #: Trace context: while a deploy span is parked here (by
        #: :meth:`repro.core.codeflow.CodeFlow.deploy_prog`, obs on), every
        #: chain/land/CAS/flush below emits a causal trace event under
        #: that span's trace id.
        self.trace_span = None
        #: Every WR posted here takes its id from this simulation.
        self._wr_ids = sim.ids.wr

    def _trace_event(self, category: str, **data) -> None:
        """Stamp ``category`` under the parked span (callers check that
        one is parked, so an op outside a deploy builds no kwargs)."""
        span = self.trace_span
        self._obs.recorder.record(
            self.sim.now, category,
            trace_id=span.trace_id, span_id=span.span_id,
            target=self.sandbox.name, **data,
        )

    # -- raw one-sided ops --------------------------------------------------

    def _hb_note(self, addr: int, note: "Optional[dict]" = None):
        """The hb annotation dict for a WR against ``addr`` (or None).

        Classifies control-block words by address (bubble / epoch /
        lock / doorbell) and tags the current epoch, then merges any
        caller-supplied annotation (deploy transaction ids).  Only
        called with hb checking on.
        """
        out: dict = {}
        if self.hb_epoch is not None:
            out["epoch"] = self.hb_epoch
        sandbox = self.sandbox
        if addr == sandbox.bubble_addr:
            out["label"] = "bubble"
        elif addr == sandbox.epoch_addr:
            out["label"] = "epoch"
        elif addr == sandbox.lock_addr:
            out["label"] = "lock"
        elif addr == sandbox.control_addr + 24:  # OFF_DOORBELL
            out["label"] = "doorbell"
        if note:
            out.update(note)
        return out or None

    def _consult_hook(self, op: str, addr: int, data):
        """Apply an armed fault, if any.

        Returns ``(payload, drop, error)``: possibly mangled payload,
        whether to skip the op entirely, and an exception to raise from
        *inside* the first transport attempt (so a one-shot transient
        fault meets the retry policy, exactly like a real flaky link).
        """
        if self.fault_hook is None:
            return data, False, None
        action = self.fault_hook(op, addr, data)
        if action is None:
            return data, False, None
        mangled = getattr(action, "mangled", None)
        if mangled is not None:
            data = mangled
        return (
            data,
            bool(getattr(action, "drop", False)),
            getattr(action, "error", None),
        )

    def _post(self, opcode: WrOpcode, addr: int, note=None, **fields):
        """Post one fresh WR against ``addr`` and return its completion
        event -- an op's ``post``, called once per attempt."""
        return self.qp.post_send(WorkRequest(
            opcode=opcode, remote_addr=addr, rkey=self.rkey,
            hb=self._hb_note(addr, note) if self._hb else None,
            wr_id=next(self._wr_ids), **fields,
        ))

    def _post_chain(self, window: "list[tuple[int, bytes]]", note=None):
        """Post ``window`` as one chain of fresh WRITEs (one doorbell,
        one signaled completion) and return the chain's event."""
        return self.qp.post_send_batch([
            WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=self.rkey,
                data=payload, hb=self._hb_note(addr, note) if self._hb else None,
                wr_id=next(self._wr_ids),
            )
            for addr, payload in window
        ])

    def _settle(self, completion: Completion, what: str) -> Completion:
        """One attempt's outcome: its completion, or the error to raise
        (:class:`TransientFault` for an unACKed WR, which the retry
        policy absorbs; :class:`RdmaError` for anything else).

        Every op runs as ``self.retry.run(sim, post, self._settle, what,
        ...)``, where ``post`` (:meth:`_post`, :meth:`_post_chain`)
        builds and posts fresh WRs per attempt.  A failed chain retries
        *as a whole*: torn prefixes from the failed attempt are overwritten
        when the retry re-lands every WR (writes are idempotent), so
        partial progress never leaks into the success path.
        """
        # ibv_poll_cq discipline: the convenience event mirrors a CQE
        # that also landed in the CQ.  Retire one entry per completed
        # post (a chain has a single signaled CQE), or a long-lived
        # codeflow (the serving tier sustains thousands of deploys per
        # QP) overruns the CQ -- a fatal async event -- after ``depth``
        # operations.
        self.qp.cq.poll()
        status = completion.status
        if status is WcStatus.SUCCESS:
            return completion
        if status is WcStatus.RETRY_EXC_ERROR:
            raise TransientFault(f"{what} unACKed: {completion.error}")
        raise RdmaError(f"{what} failed: {completion.error}")

    def write(self, addr: int, data: bytes, note=None) -> Generator:
        inject = None
        if self.fault_hook is not None:
            data, dropped, inject = self._consult_hook("write", addr, data)
            if dropped:
                yield params.RDX_CC_EVENT_US
                return None
        completion = yield from self.retry.run(
            self.sim, partial(self._post, WrOpcode.RDMA_WRITE, addr, note, data=data),
            self._settle, "WRITE", self._rng, inject,
        )
        if self.trace_span is not None:
            self._trace_event(
                "rdx.trace.write", addr=addr, length=len(data),
                chunks=max(1, -(-len(data) // RNIC_MTU_BYTES)),
            )
        return completion

    def write_batch(self, ops: "list[tuple[int, bytes]]", note=None) -> Generator:
        """Pipelined multi-write: chained WRs, selective signaling.

        ``ops`` is ``[(addr, payload), ...]``.  Up to
        :data:`repro.params.RDX_SQ_DEPTH` WRs go out per chain (one
        doorbell, one signaled completion); larger batches issue
        multiple chains back to back.  The fault hook is consulted per
        op, exactly as :meth:`write` does -- an armed fault can mangle
        or drop any WR in the batch, and an injected transport error
        fails the whole chain's first attempt (the batch then retries
        as a whole under the RetryPolicy).  A *dropped* WR re-enters
        the retry loop like a transport error: from the initiator it is
        indistinguishable from an unACKed write, so it is charged the
        transport timeout and re-sent (with backoff) until it lands or
        the retry budget runs out -- the batch never reports success
        with a chunk missing.  An empty ``ops`` list is a no-op with
        zero simulated cost (no chain, no doorbell, nothing to charge).
        Returns the last chain's completion.
        """
        pending = list(ops)
        if not pending:
            return None
        completion = None
        depth = params.RDX_SQ_DEPTH
        inject = None
        for attempt in range(1, self.retry.max_attempts + 1):
            staged, redo = pending, []
            if self.fault_hook is not None:
                staged = []
                for addr, data in pending:
                    payload, dropped, error = self._consult_hook(
                        "write", addr, data
                    )
                    if error is not None and inject is None:
                        inject = error
                    if dropped:
                        redo.append((addr, data))
                        continue
                    staged.append((addr, payload))
            for start in range(0, len(staged), depth):
                window = staged[start : start + depth]
                self._m_chain_wrs.observe(len(window))
                self._m_inflight.observe(len(window))

                completion = yield from self.retry.run(
                    self.sim, partial(self._post_chain, window, note),
                    self._settle, "WRITE_BATCH", self._rng, inject,
                )
                if self.trace_span is not None:
                    self._trace_event(
                        "rdx.trace.chain", wrs=len(window),
                        bytes=sum(len(payload) for _, payload in window),
                    )
                inject = None
            if not redo:
                return completion
            # Dropped WRs went out but never ACKed: charge the
            # transport timeout like any lost op, then back off and
            # re-send only the missing writes (writes are idempotent,
            # and the hook is consulted again so one-shot faults heal).
            yield params.RDMA_RETRY_TIMEOUT_US
            self._obs.counter("rdx.retry.attempts", op="write_batch").inc()
            if attempt == self.retry.max_attempts:
                self._obs.counter(
                    "rdx.retry.exhausted", op="write_batch"
                ).inc()
                raise TransientFault(
                    f"WRITE_BATCH: {len(redo)} WR(s) dropped in-flight "
                    f"after {attempt} attempts"
                )
            delay = self.retry.backoff_us(attempt, self._rng)
            self._obs.histogram("rdx.retry.backoff_us").observe(delay)
            yield delay
            pending = redo
        return completion

    def read(self, addr: int, length: int) -> Generator:
        inject = None
        if self.fault_hook is not None:
            _, dropped, inject = self._consult_hook("read", addr, None)
            if dropped:
                # Stale read: the response carries pre-write bytes,
                # modeled as zeros (the allocator hands out zeroed
                # regions).
                yield params.RDX_CC_EVENT_US
                return bytes(length)
        completion = yield from self.retry.run(
            self.sim, partial(self._post, WrOpcode.RDMA_READ, addr, length=length),
            self._settle, "READ", self._rng, inject,
        )
        return completion.result

    def cas(self, addr: int, compare: int, swap: int, note=None) -> Generator:
        inject = None
        if self.fault_hook is not None:
            _, _, inject = self._consult_hook("cas", addr, None)
        completion = yield from self.retry.run(
            self.sim,
            partial(
                self._post, WrOpcode.COMP_SWAP, addr, note,
                compare=compare, swap_or_add=swap,
            ),
            self._settle, "CAS", self._rng, inject,
        )
        if self.trace_span is not None:
            self._trace_event("rdx.trace.cas", addr=addr)
        return completion.result

    def fetch_add(self, addr: int, delta: int) -> Generator:
        completion = yield from self.retry.run(
            self.sim, partial(self._post, WrOpcode.FETCH_ADD, addr, swap_or_add=delta),
            self._settle, "FETCH_ADD", self._rng,
        )
        return completion.result

    # -- rdx_tx (§3.5 issue 1) -----------------------------------------------

    def tx(
        self,
        obj_addr: int,
        obj_bytes: bytes,
        qword_addr: int,
        new_qword: int,
        expect: Optional[int] = None,
        note=None,
    ) -> Generator:
        """Transactional install: stage the object, then flip one qword.

        The object is fully resident before the qword swap executes
        (RC ordering: the WRITE completion precedes the CAS issue), so
        a concurrent data-path reader can never observe a partial
        object through the new pointer.  Returns the qword's prior
        value.  When ``expect`` is given the flip is a compare-and-swap
        and the transaction *aborts* (returns the observed value
        without swapping) on mismatch.
        """
        if self._hb and note is None and obj_bytes:
            note = hb.txn_note(self.sim, publishes=(obj_addr, len(obj_bytes)))
        body_note = self._body_note(note)
        if obj_bytes:
            yield from self.write(obj_addr, obj_bytes, note=body_note)
        yield params.RDX_TX_COMMIT_US
        if expect is not None:
            prior = yield from self.cas(qword_addr, expect, new_qword, note=note)
        else:
            prior = yield from self.read(qword_addr, 8)
            prior = int.from_bytes(prior, "little")
            yield from self.write(
                qword_addr, new_qword.to_bytes(8, "little"), note=body_note
            )
        self.tx_count += 1
        return prior

    def install(
        self,
        ops: "list[tuple[int, bytes]]",
        qword_addr: int,
        expect: int,
        new_qword: int,
        flush: "list[tuple[int, int]]",
        note=None,
    ) -> Generator:
        """``rdx_tx`` and the ``rdx_cc_event`` doorbells as ONE WR chain.

        The chain is ``ops`` (the staged object, ``[(addr, payload),
        ...]``), a fenced COMP_SWAP of the qword at ``qword_addr`` from
        ``expect`` to ``new_qword``, then one 8-byte doorbell WRITE per
        ``flush`` span and one for the qword's line.  The fence orders
        the CAS after every earlier WR of its chain, so the object is
        resident before the pointer flips, and the CAS's prior value
        comes back in the chain's one CQE.  Windows split at
        :data:`~repro.params.RDX_SQ_DEPTH` as in :meth:`write_batch`,
        which posts every window but the last; the CAS and the
        doorbells ride the last.  ``note`` is the commit's hb
        annotation; the object's WRs carry its ``txn`` only.

        The fault hook bites per WR: ``write`` faults on the object
        (a drop fails the chain's first attempt, like an injected
        error), ``cas`` faults on the CAS; ``cc_event`` faults bite the
        doorbells' effect in :meth:`flush_chained`.

        Returns ``(prior, torn)``.  It raises only when the CAS never
        executed, retrying the chain as a whole until then.  An
        executed CAS is never re-issued: a chain torn after it returns
        the error as ``torn`` -- with the right prior the install has
        committed, and the doorbells after the tear may not have run.
        The caller waits for the flushes with :meth:`flush_chained`.
        """
        depth = params.RDX_SQ_DEPTH
        tail = 2 + len(flush)
        cut = (len(ops) - 1) // depth * depth if ops else 0
        if len(ops) - cut + tail > depth:
            cut = len(ops)
        body_note = self._body_note(note)
        if cut:
            yield from self.write_batch(ops[:cut], note=body_note)
        window = ops[cut:]
        inject = None
        if self.fault_hook is not None:
            staged = []
            for addr, data in window:
                data, dropped, error = self._consult_hook("write", addr, data)
                if dropped and error is None:
                    error = TransientFault(f"INSTALL: WRITE to {addr:#x} dropped")
                inject = inject or error
                staged.append((addr, data))
            window = staged
            _, _, error = self._consult_hook("cas", qword_addr, None)
            inject = inject or error
        wrs = len(window) + tail
        self._m_chain_wrs.observe(wrs)
        self._m_inflight.observe(wrs)
        completion = yield from self.retry.run(
            self.sim,
            partial(
                self._post_install, window, qword_addr, expect, new_qword,
                tail - 1, body_note, note,
            ),
            self._settle_install, "INSTALL", self._rng, inject,
        )
        if self.trace_span is not None:
            self._trace_event(
                "rdx.trace.chain", wrs=wrs,
                bytes=sum(len(payload) for _, payload in window) + 8 * tail,
            )
            self._trace_event("rdx.trace.cas", addr=qword_addr)
        prior = completion.result
        if prior == expect:
            self.tx_count += 1
        torn = None
        status = completion.status
        if status is not WcStatus.SUCCESS:
            kind = TransientFault if status is WcStatus.RETRY_EXC_ERROR else RdmaError
            torn = kind(f"INSTALL torn after its CAS: {completion.error}")
        return prior, torn

    def _post_install(
        self, window, qword_addr, expect, new_qword, doorbells, body_note, note,
    ):
        """Post the install's last window (:meth:`install`) as one chain."""
        hb_on = self._hb
        wr_ids = self._wr_ids
        doorbell = self.sandbox.control_addr + 24  # OFF_DOORBELL
        ring = (1).to_bytes(8, "little")
        wrs = [
            WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=self.rkey,
                data=payload, hb=self._hb_note(addr, body_note) if hb_on else None,
                wr_id=next(wr_ids),
            )
            for addr, payload in window
        ]
        wrs.append(WorkRequest(
            opcode=WrOpcode.COMP_SWAP, remote_addr=qword_addr, rkey=self.rkey,
            compare=expect, swap_or_add=new_qword, fence=True,
            hb=self._hb_note(qword_addr, note) if hb_on else None,
            wr_id=next(wr_ids),
        ))
        for _ in range(doorbells):
            wrs.append(WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=doorbell, rkey=self.rkey,
                data=ring, hb=self._hb_note(doorbell) if hb_on else None,
                wr_id=next(wr_ids),
            ))
        return self.qp.post_send_batch(wrs)

    def _settle_install(self, completion: Completion, what: str) -> Completion:
        """:meth:`_settle`, except that a chain whose CAS executed is
        final, failed or not: retrying it would re-issue the CAS."""
        if completion.result is None:
            return self._settle(completion, what)
        self.qp.cq.poll()
        return completion

    @staticmethod
    def _body_note(note):
        """A commit's hb note without the range only the commit
        publishes: what its object's WRs carry."""
        if not note:
            return None
        return {k: v for k, v in note.items() if k not in ("pub_addr", "pub_len")}

    # -- rdx_cc_event (§3.5 issue 2) ------------------------------------------

    def cc_event(self, mem_addr: int, length: int = 64) -> Generator:
        """Remote cache-line flush via the sandbox's event hook.

        Models posting a tiny cache-coherent descriptor that the
        hardware event hook executes: the target lines are clflushed,
        so the next CPU read observes DMA-written bytes.  This op posts
        its own doorbell WQE, fire-and-forget; an install chains its
        doorbells behind the commit CAS instead (:meth:`install`) and
        waits for their effect with :meth:`flush_chained`.  The flush
        takes effect ~:data:`repro.params.RDX_CC_EVENT_US` after the
        post and costs no target CPU time.
        """
        if self.fault_hook is not None:
            _, dropped, _inject = self._consult_hook("cc_event", mem_addr, None)
            if dropped:
                # Charge the time, skip the effect (DROPPED_FLUSH fault).
                yield params.RDX_CC_EVENT_US
                return
        doorbell = self.sandbox.control_addr + 24  # OFF_DOORBELL
        if self._hb:
            hb.emit(
                self.sim, "hb.flush.post",
                qp=self.qp.qpn, node=self.qp.rnic.host.name,
                target=self.sandbox.host.name, addr=mem_addr, length=length,
            )
        self.sim.spawn(
            self.write(doorbell, (1).to_bytes(8, "little")),
            name="cc-doorbell",
        )
        yield params.RDX_CC_EVENT_US
        self._flush_effect(mem_addr, length, waited=True)

    def flush_chained(
        self, spans: "list[tuple[int, int]]", waited: bool = True
    ) -> Generator:
        """The effect of flush doorbells that already rode a WR chain.

        One doorbell per ``(addr, length)`` span landed with the chain
        whose CQE the caller just polled (:meth:`install`, a bubble
        write); the event hook executes them
        ~:data:`repro.params.RDX_CC_EVENT_US` later, in order, at one
        instant.  The fault hook is consulted per span as in
        :meth:`cc_event`: a dropped flush still costs the wait, but has
        no effect.  ``waited`` marks each flush as a QP ordering point
        for the hb graph: True when the caller blocks on this generator,
        False for a deferred one whose completion orders nothing (a
        broadcast's bubble lowering).
        """
        live = []
        for addr, length in spans:
            if self.fault_hook is not None:
                _, dropped, _inject = self._consult_hook("cc_event", addr, None)
                if dropped:
                    continue
            if self._hb:
                hb.emit(
                    self.sim, "hb.flush.post",
                    qp=self.qp.qpn, node=self.qp.rnic.host.name,
                    target=self.sandbox.host.name, addr=addr, length=length,
                )
            live.append((addr, length))
        yield params.RDX_CC_EVENT_US
        for addr, length in live:
            self._flush_effect(addr, length, waited)

    def _flush_effect(self, addr: int, length: int, waited: bool) -> None:
        """One remote flush taking effect on the target's cache."""
        self.sandbox.host.cache.flush(addr, length)
        self.cc_count += 1
        if self.trace_span is not None:
            self._trace_event("rdx.trace.flush", addr=addr, length=length)
        if self._hb:
            # ``waited=True``: the caller blocks until the flush effect,
            # so anything it posts on this QP afterwards is causally
            # behind it -- unlike the deferred flush of a bubble
            # lowering, which must NOT become a QP ordering point (see
            # HbGraph._build).
            hb.emit(
                self.sim, "hb.flush",
                qp=self.qp.qpn, node=self.qp.rnic.host.name,
                target=self.sandbox.host.name, addr=addr, length=length,
                waited=waited,
            )

    # -- rdx_mutual_excl (§3.5 issue 3) ----------------------------------------

    def lock(
        self, owner_token: int, max_attempts: int = 64, backoff_us: float = 2.0
    ) -> Generator:
        """Acquire the sandbox lock with bounded, jittered CAS retries.

        Backoff grows geometrically and carries seeded jitter derived
        from ``owner_token``, so two contenders never retry in
        lockstep (lockstep contenders each observe the other's token
        every round and can livelock to exhaustion).  Returns the
        number of attempts used; raises on exhaustion.
        """
        lock_addr = self.sandbox.lock_addr
        policy = RetryPolicy(
            max_attempts=max_attempts,
            backoff_base_us=backoff_us,
            backoff_max_us=backoff_us * 16,
            jitter_frac=0.5,
        )
        # Seeded per (token, acquisition): deterministic across runs,
        # decorrelated across contenders.
        rng = random.Random(owner_token * 0x9E3779B1 + self.lock_acquires)
        for attempt in range(1, max_attempts + 1):
            prior = yield from self.cas(lock_addr, 0, owner_token)
            if prior == 0:
                self.lock_acquires += 1
                if attempt > 1:
                    self._obs.counter("rdx.lock.contended_acquires").inc()
                if self._hb:
                    self._emit_lock("acquire", owner_token)
                # Make the acquisition visible to the local CPU quickly.
                yield from self.cc_event(lock_addr, 8)
                return attempt
            yield policy.backoff_us(attempt, rng)
        raise RdmaError(
            f"lock on {self.sandbox.name} not acquired after {max_attempts} tries"
        )

    def unlock(self, owner_token: int) -> Generator:
        lock_addr = self.sandbox.lock_addr
        prior = yield from self.cas(lock_addr, owner_token, 0)
        if prior != owner_token:
            raise RdmaError(
                f"unlock of {self.sandbox.name}: lock held by {prior}, "
                f"not {owner_token}"
            )
        if self._hb:
            self._emit_lock("release", owner_token)
        yield from self.cc_event(lock_addr, 8)

    def _emit_lock(self, op: str, owner_token: int) -> None:
        hb.emit(
            self.sim, "hb.lock",
            qp=self.qp.qpn, node=self.qp.rnic.host.name,
            target=self.sandbox.host.name, addr=self.sandbox.lock_addr,
            op=op, token=owner_token,
        )

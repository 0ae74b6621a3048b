"""Remote synchronization primitives (paper §3.5, Table 1).

One-sided injection has three hazards, each owned by one primitive:

* **partial reads** of large objects -> :meth:`RemoteSync.tx` stages
  the full object first, then flips a single qword (the hook pointer)
  with an atomic CAS -- the data path either sees the old object or
  the complete new one;
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
        #: Jitter source for retry backoff, decorrelated per target.
        #: Seeded from the sandbox *name* (stable across test orderings,
        #: unlike the module-global sandbox_id counter).
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

    def _trace_event(self, category: str, **data) -> None:
        span = self.trace_span
        if span is None:
            return
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
        caller-supplied annotation (deploy transaction ids).
        """
        if not self._hb:
            return None
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

    def _attempt(self, post, what: str) -> Generator:
        completion = yield post()
        # ibv_poll_cq discipline: the convenience event mirrors a CQE
        # that also landed in the CQ.  Retire one entry per completed
        # post (a chain has a single signaled CQE), or a long-lived
        # codeflow (the serving tier sustains thousands of deploys per
        # QP) overruns the CQ -- a fatal async event -- after ``depth``
        # operations.
        self.qp.cq.poll()
        self._check(completion, what)
        return completion

    def _faulted_attempt(self, error: BaseException) -> Generator:
        # The op goes out but its ACK never arrives: charge the
        # transport timeout, then surface the injected fault.
        yield params.RDMA_RETRY_TIMEOUT_US
        raise error

    def _op(self, post, what: str, inject=None) -> Generator:
        """One post under the retry policy (transient faults absorbed).

        ``post`` builds and posts fresh WRs -- one, or a chained batch
        -- and returns the completion event; it is called once per
        attempt.  A failed chain retries *as a whole*: torn prefixes
        from the failed attempt are overwritten when the retry re-lands
        every WR (writes are idempotent), so partial progress never
        leaks into the success path.  ``inject`` makes the *first*
        attempt fail with that exception; retryable injections are
        then absorbed like any other hiccup.
        """
        state = {"pending": inject}

        def attempt():
            if state["pending"] is not None:
                error, state["pending"] = state["pending"], None
                return self._faulted_attempt(error)
            return self._attempt(post, what)

        completion = yield from self.retry.run(
            self.sim, attempt, op=what.lower(), rng=self._rng
        )
        return completion

    def write(self, addr: int, data: bytes, note=None) -> Generator:
        payload, dropped, inject = self._consult_hook("write", addr, data)
        if dropped:
            yield params.RDX_CC_EVENT_US
            return None
        completion = yield from self._op(
            lambda: self.qp.post_send(WorkRequest(
                opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=self.rkey,
                data=payload, hb=self._hb_note(addr, note),
            )),
            "WRITE",
            inject=inject,
        )
        self._trace_event(
            "rdx.trace.write", addr=addr, length=len(payload),
            chunks=max(1, -(-len(payload) // RNIC_MTU_BYTES)),
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
            staged = []
            redo = []
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

                def post_chain(window=window):
                    return self.qp.post_send_batch([
                        WorkRequest(
                            opcode=WrOpcode.RDMA_WRITE, remote_addr=addr,
                            rkey=self.rkey, data=payload,
                            hb=self._hb_note(addr, note),
                        )
                        for addr, payload in window
                    ])

                completion = yield from self._op(
                    post_chain, "WRITE_BATCH", inject=inject
                )
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
        _, dropped, inject = self._consult_hook("read", addr, None)
        if dropped:
            # Stale read: the response carries pre-write bytes, modeled
            # as zeros (the allocator hands out zeroed regions).
            yield params.RDX_CC_EVENT_US
            return bytes(length)
        completion = yield from self._op(
            lambda: self.qp.post_send(WorkRequest(
                opcode=WrOpcode.RDMA_READ, remote_addr=addr, rkey=self.rkey,
                length=length, hb=self._hb_note(addr),
            )),
            "READ",
            inject=inject,
        )
        return completion.result

    def cas(self, addr: int, compare: int, swap: int, note=None) -> Generator:
        _, _, inject = self._consult_hook("cas", addr, None)
        completion = yield from self._op(
            lambda: self.qp.post_send(WorkRequest(
                opcode=WrOpcode.COMP_SWAP, remote_addr=addr, rkey=self.rkey,
                compare=compare, swap_or_add=swap,
                hb=self._hb_note(addr, note),
            )),
            "CAS",
            inject=inject,
        )
        self._trace_event("rdx.trace.cas", addr=addr)
        return completion.result

    def fetch_add(self, addr: int, delta: int) -> Generator:
        completion = yield from self._op(
            lambda: self.qp.post_send(WorkRequest(
                opcode=WrOpcode.FETCH_ADD, remote_addr=addr, rkey=self.rkey,
                swap_or_add=delta, hb=self._hb_note(addr),
            )),
            "FETCH_ADD",
        )
        return completion.result

    @staticmethod
    def _check(completion: Completion, what: str) -> None:
        if completion.status is WcStatus.RETRY_EXC_ERROR:
            raise TransientFault(f"{what} unACKed: {completion.error}")
        if completion.status is not WcStatus.SUCCESS:
            raise RdmaError(f"{what} failed: {completion.error}")

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
            note = hb.txn_note(publishes=(obj_addr, len(obj_bytes)))
        body_note = None
        if note:
            body_note = {
                k: v for k, v in note.items() if k not in ("pub_addr", "pub_len")
            }
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

    # -- rdx_cc_event (§3.5 issue 2) ------------------------------------------

    def cc_event(self, mem_addr: int, length: int = 64) -> Generator:
        """Remote cache-line flush via the sandbox's event hook.

        Models posting a tiny cache-coherent descriptor that the
        hardware event hook executes: the target lines are clflushed,
        so the next CPU read observes DMA-written bytes.  The doorbell
        WQE is posted fire-and-forget (batched with the preceding
        transaction's WQEs on real hardware); the flush itself takes
        effect ~:data:`repro.params.RDX_CC_EVENT_US` later and costs
        no target CPU time.
        """
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
        self.sandbox.host.cache.flush(mem_addr, length)
        self.cc_count += 1
        self._trace_event("rdx.trace.flush", addr=mem_addr, length=length)
        if self._hb:
            # ``waited=True``: this generator blocks until the flush
            # effect, so anything the caller posts on this QP afterwards
            # is causally behind it -- unlike the fire-and-forget flush
            # in broadcast bubble-lowering, which must NOT become a QP
            # ordering point (see HbGraph._build).
            hb.emit(
                self.sim, "hb.flush",
                qp=self.qp.qpn, node=self.qp.rnic.host.name,
                target=self.sandbox.host.name, addr=mem_addr, length=length,
                waited=True,
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
        obs = telemetry_of(self.sim)
        for attempt in range(1, max_attempts + 1):
            prior = yield from self.cas(lock_addr, 0, owner_token)
            if prior == 0:
                self.lock_acquires += 1
                if attempt > 1:
                    obs.counter("rdx.lock.contended_acquires").inc()
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

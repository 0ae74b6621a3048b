"""Admission control: bounded per-class queues with counted shedding.

The deploy service's front door.  Every arriving request either lands
in its class's bounded queue or is rejected with an attributed *shed
reason* -- there is no path through this module that drops a request
silently, which is what lets the benchmark assert
``offered == completed + failed + shed``.

Shed reasons (the closed set, each a counter):

* ``queue-full``      -- the class queue is at depth.
* ``tenant-quota``    -- the tenant's pending cap is reached.
* ``unknown-tenant``  -- no registration (mirrors QosScheduler).
* ``rate-limited``    -- the class/tenant token-bucket deficit exceeds
  the class's ``max_throttle_us`` (waiting would only grow the queue).
* ``stopped``         -- the service is shutting down.

Backpressure is the other half of the contract: a closed-loop producer
can wait on :meth:`AdmissionController.space_event` instead of being
shed, so ``queue-full`` only ever sheds callers who chose open-loop
semantics.

A popped ticket whose program must first compile keeps its queue slot
while it does (:meth:`AdmissionController.hold`), so ``queue-full``
still sheds when compiles back up; once its verdict lands it returns
to the head of its class queue (:meth:`AdmissionController.unhold`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.qos import _TokenBucket
from repro.obs import telemetry_of
from repro.serve.tenants import PriorityClass

#: The closed set of shed reasons (also the serve-segment slot names,
#: with ``-`` mapped to ``_``).
SHED_QUEUE_FULL = "queue-full"
SHED_TENANT_QUOTA = "tenant-quota"
SHED_UNKNOWN_TENANT = "unknown-tenant"
SHED_RATE_LIMITED = "rate-limited"
SHED_STOPPED = "stopped"
SHED_REASONS = (
    SHED_QUEUE_FULL,
    SHED_TENANT_QUOTA,
    SHED_UNKNOWN_TENANT,
    SHED_RATE_LIMITED,
    SHED_STOPPED,
)


@dataclass
class DeployTicket:
    """One submitted deploy request and its lifecycle record."""

    tenant: str
    class_name: str
    program: object
    hook_name: str
    codeflow: object
    size_bytes: int
    submitted_us: float
    #: Set at admission: how long the class bucket asks this deploy to
    #: be paced before executing (its reservation deficit).
    pace_us: float = 0.0
    accepted: bool = False
    shed_reason: Optional[str] = None
    #: Succeeds (with this ticket) when the deploy completes or fails;
    #: never ``fail()``-ed, so open-loop waiters don't need try/except.
    done: Optional[object] = None
    started_us: Optional[float] = None
    finished_us: Optional[float] = None
    report: Optional[object] = None
    error: Optional[BaseException] = None
    #: Free-form marker the workload generator uses (hot/bulk/cold).
    kind: str = ""

    @property
    def completed(self) -> bool:
        return self.report is not None

    @property
    def queue_wait_us(self) -> float:
        """Submit to the first worker's pop."""
        if self.started_us is None:
            return 0.0
        return self.started_us - self.submitted_us

    @property
    def service_us(self) -> float:
        """Execution latency: first pop to install-visible, an
        off-worker compile and the return to the queue included."""
        if self.started_us is None or self.finished_us is None:
            return 0.0
        return self.finished_us - self.started_us

    @property
    def latency_us(self) -> float:
        """End-to-end: submit to install-visible (includes queueing)."""
        if self.finished_us is None:
            return 0.0
        return self.finished_us - self.submitted_us


@dataclass
class _ClassQueue:
    cls: PriorityClass
    bucket: _TokenBucket
    tickets: list = field(default_factory=list)
    #: Waiters parked by backpressure mode; fired (and replaced) when
    #: a slot frees up.
    space: Optional[object] = None
    #: Popped tickets compiling off the workers; each holds a slot.
    compiling: int = 0


class AdmissionController:
    """Bounded, prioritized admission in front of the deploy workers."""

    def __init__(self, sim, classes, segment=None):
        self.sim = sim
        self.obs = telemetry_of(sim)
        self.segment = segment
        self._queues: dict[str, _ClassQueue] = {}
        for cls in classes:
            self._queues[cls.name] = _ClassQueue(
                cls=cls,
                bucket=_TokenBucket(
                    sim, cls.rate_bytes_per_s, cls.burst_bytes
                ),
            )
        #: Dequeue order: strict priority, FIFO within a class.
        self._order = sorted(
            self._queues.values(), key=lambda q: q.cls.priority
        )
        self.admitted = 0
        #: reason -> count; the "never silent" ledger.
        self.shed: dict[str, int] = {}
        self._pending_by_tenant: dict[str, int] = {}

    # -- intake --------------------------------------------------------------

    def pending(self, class_name: Optional[str] = None) -> int:
        if class_name is not None:
            return len(self._queues[class_name].tickets)
        return sum(len(q.tickets) for q in self._queues.values())

    def has_space(self, class_name: str) -> bool:
        queue = self._queues[class_name]
        return len(queue.tickets) + queue.compiling < queue.cls.queue_depth

    def space_event(self, class_name: str):
        """Event that fires the next time ``class_name`` frees a slot."""
        queue = self._queues[class_name]
        if queue.space is None:
            queue.space = self.sim.event()
        return queue.space

    def offer(
        self, ticket: DeployTicket, throttle_hint_us: float = 0.0
    ) -> Optional[str]:
        """Admit ``ticket`` or return the shed reason (already counted).

        ``throttle_hint_us`` is the tenant-bucket deficit the caller
        peeked from the QoS layer; it joins the class bucket's own
        deficit under the class's ``max_throttle_us`` ceiling.
        """
        queue = self._queues[ticket.class_name]
        cls = queue.cls
        pending = self._pending_by_tenant.get(ticket.tenant, 0)
        if pending >= cls.max_pending_per_tenant:
            return self._shed(ticket, SHED_TENANT_QUOTA)
        if len(queue.tickets) + queue.compiling >= cls.queue_depth:
            return self._shed(ticket, SHED_QUEUE_FULL)
        class_delay = queue.bucket.delay_for(ticket.size_bytes)
        if max(class_delay, throttle_hint_us) > cls.max_throttle_us:
            return self._shed(ticket, SHED_RATE_LIMITED)
        # Point of no return: reserve the class bytes atomically (the
        # deficit becomes this ticket's pacing delay) and enqueue.
        ticket.pace_us = queue.bucket.reserve(ticket.size_bytes)
        ticket.accepted = True
        ticket.done = self.sim.event()
        queue.tickets.append(ticket)
        self._pending_by_tenant[ticket.tenant] = pending + 1
        self.admitted += 1
        self.obs.counter(
            "rdx.serve.admitted", tenant_class=ticket.class_name
        ).inc()
        if self.segment is not None:
            self.segment.inc("admit.accept")
        return None

    def shed_explicit(self, ticket: DeployTicket, reason: str) -> str:
        """Shed ``ticket`` for a service-level reason (e.g. stopped)."""
        return self._shed(ticket, reason)

    def _shed(self, ticket: DeployTicket, reason: str) -> str:
        ticket.accepted = False
        ticket.shed_reason = reason
        self.shed[reason] = self.shed.get(reason, 0) + 1
        self.obs.counter(
            "rdx.serve.shed", reason=reason, tenant_class=ticket.class_name
        ).inc()
        if self.segment is not None:
            self.segment.inc("shed." + reason.replace("-", "_"))
        return reason

    # -- dequeue ---------------------------------------------------------------

    def next_ready(self) -> Optional[DeployTicket]:
        """Pop the highest-priority queued ticket (FIFO within class)."""
        for queue in self._order:
            if queue.tickets:
                # Note the tenant's pending slot stays held until
                # release() -- the per-tenant cap covers queued *and*
                # running deploys.
                ticket = queue.tickets.pop(0)
                if queue.space is not None:
                    queue.space.succeed()
                    queue.space = None
                return ticket
        return None

    def hold(self, ticket: DeployTicket) -> None:
        """Keep a popped ticket's slot while it compiles off the workers.

        :meth:`next_ready` already fired the class's space event; a
        parked producer re-checks :meth:`has_space` and parks again.
        """
        self._queues[ticket.class_name].compiling += 1

    def unhold(self, ticket: DeployTicket, requeue: bool) -> None:
        """End :meth:`hold`.  With ``requeue`` the ticket goes back to
        the head of its class queue, behind tickets that returned before
        it; otherwise its slot frees."""
        queue = self._queues[ticket.class_name]
        queue.compiling -= 1
        if requeue:
            index = next(
                (i for i, queued in enumerate(queue.tickets)
                 if queued.started_us is None),
                len(queue.tickets),
            )
            queue.tickets.insert(index, ticket)
        elif queue.space is not None:
            queue.space.succeed()
            queue.space = None

    def release(self, ticket: DeployTicket) -> None:
        """Return the tenant's pending slot once its deploy finishes."""
        remaining = self._pending_by_tenant.get(ticket.tenant, 0) - 1
        if remaining > 0:
            self._pending_by_tenant[ticket.tenant] = remaining
        else:
            self._pending_by_tenant.pop(ticket.tenant, None)

    def drain_queued(self, reason: str = SHED_STOPPED) -> int:
        """Shed every queued ticket (service stop); returns the count.

        Each shed ticket's ``done`` event is succeeded so waiters are
        not stranded -- the rejection is visible on the ticket.
        """
        count = 0
        for queue in self._order:
            while queue.tickets:
                ticket = queue.tickets.pop(0)
                self.release(ticket)
                self._shed(ticket, reason)
                if ticket.done is not None:
                    ticket.done.succeed(ticket)
                count += 1
            if queue.space is not None:
                queue.space.succeed()
                queue.space = None
        return count

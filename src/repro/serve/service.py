"""The multi-tenant deploy service: an async front end for injection.

Gluing the serving stack together (paper §7's control plane *as a
service*): tenants submit deploys to a :class:`DeployService`; the
admission controller queues or sheds them; a fixed pool of worker
processes drains the queues in strict priority order and executes
each deploy through the :class:`~repro.core.qos.QosScheduler` (tenant
rate + wire priority) and the control plane -- where the artifact
store's pin stage (the warm pool) serves popular extensions before
validate+JIT+link ever run.

Two intake modes:

* :meth:`submit` -- open loop.  Synchronous verdict: the ticket is
  either queued (``accepted``) or shed with a counted reason.
* :meth:`submit_wait` -- closed loop / backpressure.  A producer that
  would have been shed ``queue-full`` parks on the class's space
  event instead; all other shed reasons still reject.

Deploys to one *target* serialize on a per-target priority mutex: the
hook-flip CAS is a compare-and-swap against the previous image, so
two concurrent deploys to one sandbox would abort each other; across
targets the workers run fully parallel.
"""

from __future__ import annotations

from typing import Generator

from repro import params
from repro.core.control_plane import RdxControlPlane
from repro.core.qos import QosScheduler
from repro.errors import ReproError
from repro.obs import telemetry_of
from repro.serve.admission import (
    SHED_STOPPED,
    SHED_UNKNOWN_TENANT,
    AdmissionController,
    DeployTicket,
)
from repro.serve.segment import ServeSegment
from repro.serve.tenants import TenantDirectory, default_classes
from repro.sim.resources import Resource

#: Deploy executors a :class:`DeployService` runs by default -- the
#: service's concurrency, and the QoS wire width underneath it.
SERVE_WORKERS = 8


class DeployService:
    """Admission + queues + workers over one control plane's store."""

    def __init__(
        self,
        control_plane: RdxControlPlane,
        classes=None,
        workers: int = SERVE_WORKERS,
        with_segment: bool = True,
    ):
        self.control = control_plane
        self.sim = control_plane.sim
        self.obs = telemetry_of(self.sim)
        self.workers = workers
        #: Serve-plane telemetry segment (one-sided scrape surface).
        self.segment = (
            ServeSegment(control_plane.host)
            if with_segment and params.config_of(self.sim).obs
            else None
        )
        classes = tuple(classes) if classes is not None else default_classes()
        #: The QoS layer underneath: per-tenant buckets + priority wire.
        #: Wire width matches the worker pool so the wire orders
        #: contention by priority without halving concurrency.
        self.qos = QosScheduler(control_plane, wire_slots=self.workers)
        self.directory = TenantDirectory(self.qos, classes)
        self.admission = AdmissionController(
            self.sim, classes, segment=self.segment
        )
        #: The warm pool: the control plane's artifact store, pin stage
        #: on, mirrored into this service's segment.
        self.warm_pool = control_plane.artifacts.serve(self.segment)
        #: Deploys to one target serialize (hook CAS safety); the lock
        #: is priority-aware so a hotpatch overtakes queued bulk work
        #: even at the per-target gate.
        self._target_locks: dict[str, Resource] = {}
        self.running = False
        self.offered = 0
        self.completed = 0
        self.failed = 0
        self.inflight = 0
        self._wake = self.sim.event()
        self._worker_procs: list = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.running:
            raise ReproError("deploy service already running")
        self.running = True
        for index in range(self.workers):
            self._worker_procs.append(
                self.sim.spawn(self._worker_loop(), name=f"serve.w{index}")
            )

    def stop(self) -> int:
        """Stop intake and shed everything still queued (counted).

        Running deploys finish; returns the number of queued tickets
        shed as ``stopped``.
        """
        self.running = False
        count = self.admission.drain_queued(SHED_STOPPED)
        self._broadcast_wake()
        self._note_depth()
        return count

    def drain(self) -> Generator:
        """Process body: wait until queues are empty and workers idle."""
        while self.admission.pending() or self.inflight:
            yield self.sim.timeout(50.0)

    # -- tenants ---------------------------------------------------------------

    def register(self, tenant: str, class_name: str, **quota_overrides):
        """Enroll ``tenant`` into ``class_name`` (see TenantDirectory)."""
        return self.directory.register(tenant, class_name, **quota_overrides)

    # -- intake ------------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        codeflow,
        program,
        hook_name: str,
        kind: str = "",
    ) -> DeployTicket:
        """Open-loop submission: queued or shed, decided synchronously.

        Always returns the ticket; ``ticket.accepted`` says which way
        it went, ``ticket.shed_reason`` is the counted rejection
        reason, and ``ticket.done`` (when accepted) succeeds with the
        ticket at install-visible or failure.
        """
        self.offered += 1
        cls = self.directory.class_of(tenant)
        ticket = DeployTicket(
            tenant=tenant,
            class_name=cls.name if cls is not None else "_unknown",
            program=program,
            hook_name=hook_name,
            codeflow=codeflow,
            size_bytes=program.size_bytes(),
            submitted_us=self.sim.now,
            kind=kind,
        )
        if not self.running:
            self.admission.shed_explicit(ticket, SHED_STOPPED)
            return ticket
        if cls is None:
            self.admission.shed_explicit(ticket, SHED_UNKNOWN_TENANT)
            return ticket
        hint = self.qos.throttle_hint(tenant, ticket.size_bytes)
        if self.admission.offer(ticket, throttle_hint_us=hint) is None:
            self._note_depth()
            self._broadcast_wake()
        return ticket

    def submit_wait(
        self, tenant: str, codeflow, program, hook_name: str, kind: str = ""
    ) -> Generator:
        """Process body: backpressure submission.

        Blocks (yields) while the tenant's class queue is full instead
        of shedding; every other rejection reason still returns a shed
        ticket immediately.  Returns the ticket.
        """
        cls = self.directory.class_of(tenant)
        while (
            self.running
            and cls is not None
            and not self.admission.has_space(cls.name)
        ):
            yield self.admission.space_event(cls.name)
        ticket = self.submit(tenant, codeflow, program, hook_name, kind=kind)
        return ticket

    # -- execution ----------------------------------------------------------------

    def _worker_loop(self) -> Generator:
        while True:
            ticket = self.admission.next_ready()
            if ticket is None:
                if not self.running:
                    return
                yield self._wake
                continue
            yield from self._execute(ticket)

    def _execute(self, ticket: DeployTicket) -> Generator:
        cls = self.directory.classes[ticket.class_name]
        ticket.started_us = self.sim.now
        # Claim the ticket as inflight *before* the first yield: a
        # popped ticket must be counted somewhere at every instant, or
        # the accounting identity (and drain()) has a window where it
        # is neither queued nor inflight.
        self.inflight += 1
        self._note_depth()
        self.obs.histogram(
            "rdx.serve.queue_wait_us", tenant_class=ticket.class_name
        ).observe(ticket.queue_wait_us)
        if ticket.pace_us > 0:
            # The class bucket's reservation deficit: pacing the drain
            # to the class rate without holding the queue slot.
            yield self.sim.timeout(ticket.pace_us)
        lock = self._target_lock(ticket.codeflow.sandbox.name)
        grant = lock.request(priority=cls.priority)
        yield grant
        codeflow = ticket.codeflow
        codeflow.tenant = self.obs.tenant_label(ticket.tenant, ticket.class_name)
        outcome = None
        try:
            report = yield from self.qos.inject(
                ticket.tenant, codeflow, ticket.program, ticket.hook_name,
                retain_history=False,
            )
            ticket.report = report
            self.completed += 1
            self.obs.counter(
                "rdx.serve.completed", tenant_class=ticket.class_name
            ).inc()
            outcome = "deploys.completed"
        except ReproError as err:
            # Persistent failure (crashed target, fence, policy): the
            # retry layer already absorbed transient faults.  Counted,
            # recorded on the ticket -- never silent.
            ticket.error = err
            self.failed += 1
            self.obs.counter(
                "rdx.serve.failed", tenant_class=ticket.class_name
            ).inc()
            outcome = "deploys.failed"
        finally:
            lock.release(grant)
            self.inflight -= 1
            self.admission.release(ticket)
            if outcome is None:  # the worker was interrupted, not the deploy
                self._note_depth()
        ticket.finished_us = self.sim.now
        self.obs.histogram(
            "rdx.serve.deploy_us", tenant_class=ticket.class_name
        ).observe(ticket.latency_us)
        if self.segment is not None:
            # Nothing yielded since the outcome: one bracket for it all.
            with self.segment as segment:
                segment.inc(outcome)
                self._note_depth()
                segment.observe("deploy_us", ticket.latency_us)
        ticket.done.succeed(ticket)

    # -- helpers ---------------------------------------------------------------

    def _target_lock(self, target: str) -> Resource:
        lock = self._target_locks.get(target)
        if lock is None:
            lock = Resource(self.sim, capacity=1)
            self._target_locks[target] = lock
        return lock

    def _broadcast_wake(self) -> None:
        wake, self._wake = self._wake, self.sim.event()
        wake.succeed()

    def _note_depth(self) -> None:
        if self.segment is not None:
            # One bracket: no scrape pairs a new queued with an old inflight.
            with self.segment as segment:
                segment.set_gauge("queued", float(self.admission.pending()))
                segment.set_gauge("inflight", float(self.inflight))

    # -- reporting ----------------------------------------------------------------

    def accounting(self) -> dict:
        """The no-silent-drops ledger: every offer ends somewhere."""
        shed = dict(self.admission.shed)
        return {
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "shed": shed,
            "queued": self.admission.pending(),
            "inflight": self.inflight,
            "unaccounted": (
                self.offered
                - self.completed
                - self.failed
                - sum(shed.values())
                - self.admission.pending()
                - self.inflight
            ),
        }

"""Contended resources: generic capacity resources, CPU cores, queues.

The :class:`CPU` model is central to reproducing the paper's §2.2
Observation 3 (control/data-path contention): agent work (validation,
JIT) and application request handling both execute on the same cores,
so heavy request load slows injection and vice versa.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Generator, Optional

from repro.sim.core import Event, SimulationError, Simulator


class Resource:
    """A capacity-limited resource with FIFO (optionally priority) grants.

    The wait queue is a binary heap keyed ``(priority, seq)`` -- seq is
    a per-resource monotone counter, so equal priorities stay FIFO --
    making every enqueue/dequeue O(log n).  The previous stable-insert
    deque rebuilt itself in O(n) whenever a higher-priority requester
    arrived behind a long queue, which at rack scale (hundreds of WR
    chains parked on one RNIC pipeline) turned the scheduler itself
    into the bottleneck.

    Usage from a process (the ``yield grant`` inside the ``try``, so a
    process interrupted while still queued withdraws its request)::

        grant = resource.request()
        try:
            yield grant
            yield work_us
        finally:
            resource.release(grant)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        #: Slots nobody holds: granted requests and :meth:`CPU.run`'s
        #: eventless claims both count against it.
        self._free = capacity
        self._users: set[Event] = set()
        self._waiting: list[tuple[int, int, Event]] = []
        self._seq = 0

    @property
    def in_use(self) -> int:
        return self.capacity - self._free

    @property
    def queue_len(self) -> int:
        return len(self._waiting)

    def request(self, priority: int = 0) -> Event:
        """Request a slot; the returned event fires when granted.

        Lower ``priority`` values are served first; ties are FIFO.
        """
        grant = Event(self.sim)
        if self._free and not self._waiting:
            self._free -= 1
            self._users.add(grant)
            grant.succeed(self)
        else:
            self._seq += 1
            heappush(self._waiting, (priority, self._seq, grant))
        return grant

    def release(self, grant: Event) -> None:
        """Return a granted slot, or withdraw a request still queued."""
        if grant in self._users:
            self._users.discard(grant)
            self._free += 1
            self._settle()
            return
        # Abandoned while queued (its process was interrupted): rare, so
        # a scan and a re-heapify will do.  The keys are unique, hence
        # the order of the remaining waiters is unchanged.  In place --
        # CPU.run holds this list.
        waiting = self._waiting
        for index, entry in enumerate(waiting):
            if entry[2] is grant:
                del waiting[index]
                heapify(waiting)
                return
        raise SimulationError("release() of a slot that is not held")

    def _settle(self) -> None:
        while self._waiting and self._free:
            _priority, _seq, waiter = heappop(self._waiting)
            self._free -= 1
            self._users.add(waiter)
            waiter.succeed(self)

    def using(self, work_us: float, priority: int = 0) -> Generator:
        """Convenience process body: acquire, hold for ``work_us``, release."""
        grant = self.request(priority)
        try:
            yield grant
            yield work_us
        finally:
            self.release(grant)


class Mutex(Resource):
    """A single-slot resource (capacity 1)."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, capacity=1)


class CPU:
    """A pool of identical cores with utilization accounting.

    Tasks are submitted as (cost, priority) pairs and occupy one core
    for their full cost (run-to-completion, FIFO within priority).
    Busy time is tracked so experiments can report utilization.
    """

    def __init__(self, sim: Simulator, cores: int = 24, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self.cores = cores
        self._resource = Resource(sim, capacity=cores)
        self.busy_us = 0.0
        self.tasks_run = 0

    @property
    def queue_len(self) -> int:
        return self._resource.queue_len

    @property
    def in_use(self) -> int:
        return self._resource.in_use

    def utilization(self, since_us: float = 0.0) -> float:
        """Mean utilization over [since_us, now] across all cores."""
        elapsed = self.sim.now - since_us
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_us / (elapsed * self.cores))

    def run(
        self, cost_us: float, priority: int = 0, quantum_us: Optional[float] = None
    ) -> Generator:
        """Process body that executes ``cost_us`` of work on one core.

        Without ``quantum_us`` the task runs to completion once
        scheduled.  With it, the work is time-sliced: the task yields
        the core after each quantum and re-queues, modeling a
        preemptible fair scheduler -- large control-path jobs (e.g.
        verifier runs) then genuinely contend with short data-path
        work instead of monopolizing a core.
        """
        if cost_us < 0:
            raise ValueError(f"negative CPU cost: {cost_us}")
        remaining = cost_us
        resource = self._resource
        waiting = resource._waiting
        while True:
            slice_us = (
                remaining
                if quantum_us is None or remaining < quantum_us
                else quantum_us
            )
            if resource._free and not waiting:
                # Uncontended fast path: a free core is claimed
                # synchronously (a counter bump, no grant event)
                # instead of bouncing a grant through the calendar.
                # Capacity accounting is identical -- the claim holds
                # the slot for the whole slice and later requesters
                # queue behind it.  At rack scale the grant hop is the
                # single most-dispatched event class; eliding it nearly
                # halves kernel work per slice.
                resource._free -= 1
                grant = None
            else:
                grant = resource.request(priority)
            try:
                if grant is not None:
                    yield grant
                yield slice_us
                self.busy_us += slice_us
            finally:
                if grant is not None:
                    resource.release(grant)
                else:
                    resource._free += 1
                    if waiting:
                        resource._settle()
            remaining -= slice_us
            if remaining <= 1e-9:
                break
        self.tasks_run += 1

    def spawn_task(self, cost_us: float, priority: int = 0, name: str = ""):
        """Spawn ``run`` as an independent process; returns the Process."""
        return self.sim.spawn(self.run(cost_us, priority), name=name or self.name)


class Container:
    """A continuous-level container (e.g. bytes of buffer space)."""

    def __init__(self, sim: Simulator, capacity: float, init: float = 0.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init outside [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self.level = init
        self._getters: deque[tuple[float, Event]] = deque()
        self._putters: deque[tuple[float, Event]] = deque()

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("negative put amount")
        event = Event(self.sim)
        self._putters.append((amount, event))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise ValueError("negative get amount")
        event = Event(self.sim)
        self._getters.append((amount, event))
        self._settle()
        return event

    def _settle(self) -> None:
        moved = True
        while moved:
            moved = False
            if self._putters:
                amount, event = self._putters[0]
                if self.level + amount <= self.capacity:
                    self._putters.popleft()
                    self.level += amount
                    event.succeed(amount)
                    moved = True
            if self._getters:
                amount, event = self._getters[0]
                if self.level >= amount:
                    self._getters.popleft()
                    self.level -= amount
                    event.succeed(amount)
                    moved = True


class Store:
    """An unbounded-or-bounded FIFO store of items."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Any, Event]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        event = Event(self.sim)
        self._putters.append((item, event))
        self._settle()
        return event

    def get(self) -> Event:
        event = Event(self.sim)
        self._getters.append(event)
        self._settle()
        return event

    def _settle(self) -> None:
        moved = True
        while moved:
            moved = False
            if self._putters and (
                self.capacity is None or len(self.items) < self.capacity
            ):
                item, event = self._putters.popleft()
                self.items.append(item)
                event.succeed(item)
                moved = True
            if self._getters and self.items:
                getter = self._getters.popleft()
                getter.succeed(self.items.popleft())
                moved = True

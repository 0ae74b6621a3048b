"""Event calendar, events, and the generator-based process model.

The kernel is deliberately small and deterministic: two runs of the same
simulation with the same seeds produce identical event orderings.  A
wake-up fires at its timestamp; wake-ups with equal timestamps fire in
the order they were scheduled, never by object identity.

The calendar is two containers (DESIGN.md section 16 has the proof that
they keep that order): a heap of ``(when, seq, entry)`` for the future
and a FIFO *lane* for whatever is scheduled for the instant it is
created in -- ``succeed`` / ``fail``, a spawn, a zero delay -- which is
more than half of all traffic and needs neither a tuple nor a sequence
number to stay behind everything it can only ever follow.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, Iterable, Optional, Union


#: One microsecond -- the base unit of simulated time.
US = 1.0
#: One millisecond in microseconds.
MS = 1_000.0
#: One second in microseconds.
S = 1_000_000.0

#: ``until`` of a run that no deadline ends.
_FOREVER = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, running a dead sim)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied,
    typically a short human-readable reason string.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when given a value
    (or an exception), and runs its callbacks when the simulator pops it
    from the calendar.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exception", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (value is safe to read)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value read from untriggered event")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._lane.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every waiting process when the
        event is processed.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._lane.append(self)
        return self


class _Poke(Event):
    """A pre-triggered single-callback event, minimally constructed.

    The kernel enqueues these for interrupts and for resumes on
    already-processed events; they are never yielded, waited on, or
    observed from user code, so the full :class:`Event` construction
    protocol (pending state, ``succeed`` double-trigger checks) is pure
    overhead.  Dispatch only touches ``callbacks`` / ``_processed`` /
    ``_value`` / ``_exception``, which is all this initializer fills in.
    """

    __slots__ = ()

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[["Event"], None],
        value: Any = None,
        exception: Optional[BaseException] = None,
    ):
        self.sim = sim
        self.callbacks = [callback]
        self._value = value
        self._exception = exception
        self._triggered = True
        self._processed = False
        sim._lane.append(self)


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # Flattened Event.__init__ + scheduling: timeouts are the most
        # allocated event in the simulator, so they skip the two-level
        # constructor.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        now = sim._now
        when = now + delay
        if when > now:
            seq = sim._seq = sim._seq + 1
            heappush(sim._queue, (when, seq, self))
        elif delay >= 0:  # zero, or too small to move the clock
            sim._lane.append(self)
        else:  # negative or NaN
            raise ValueError(f"negative timeout delay: {delay}")


class _Tick:
    """A process's wake-up: not an event, just what the calendar calls.

    A process waits on at most one thing at a time, so one tick per
    process carries its first resume (``spawn`` puts it on the lane) and
    then *every* ``yield <number>`` it makes: the same object goes back
    on the calendar each time, with nothing re-armed and nothing
    allocated.  Dispatch recognises it by ``callbacks is None`` and
    calls ``wake`` -- the process's bound ``_resume`` -- directly; the
    class-level ``_value`` / ``_exception`` are what ``_resume`` reads
    from any event.  An interrupt retires the tick by clearing ``wake``:
    its calendar entry stays where it is, inert, and is still counted
    when its time comes.
    """

    __slots__ = ("wake",)

    callbacks = None
    _value = None
    _exception = None

    def __init__(self, wake: Callable[["_Tick"], None]):
        self.wake: Optional[Callable[["_Tick"], None]] = wake


class Process(Event):
    """A running generator; completes (as an event) when it returns.

    The wrapped generator yields what it waits for.  ``yield <us>`` -- a
    bare ``int`` or ``float`` -- is *the* way to sleep: one calendar
    entry and no object, carried by the process's :class:`_Tick`.
    ``yield event`` waits for an :class:`Event`: when it fires, the
    generator is resumed with the event's value (or the event's
    exception is thrown into it).  Write ``sim.timeout(d)`` only for a
    timer that has to be an object: one that is held and looked at
    later, composed (``sim.any_of([reply, sim.timeout(deadline)])``) or
    carries a value.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_resume_cb", "_tick")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Union[Event, _Tick, None] = None
        #: One bound method for the process's whole life -- every
        #: ``callbacks.append(self._resume)`` would otherwise allocate
        #: a fresh bound-method object per yield.
        self._resume_cb = self._resume
        # Bootstrap: the tick's first job is one resume at spawn time.
        # ``_waiting_on`` stays None, so an interrupt that arrives
        # before the first step leaves this entry alone.
        tick = self._tick = _Tick(self._resume_cb)
        sim._lane.append(tick)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The wait the process is in is cancelled at once; the exception
        is thrown from a calendar entry later in this instant, into
        whatever wait the process is in *then* (which is cancelled the
        same way).  Interrupting a completed process is a no-op.
        """
        if not self.is_alive:
            return
        self._cancel_wait()
        _Poke(self.sim, self._interrupted, None, Interrupt(cause))

    def _cancel_wait(self) -> None:
        target = self._waiting_on
        if target is None:
            return
        self._waiting_on = None
        if target is self._tick:
            # Its calendar entry stays queued, so the object cannot
            # carry another sleep: retire it (the entry fires inert)
            # and let the next bare-number yield build a fresh one.
            target.wake = None
            self._tick = None
        else:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass  # being dispatched right now: the resume is under way

    def _interrupted(self, poke: Event) -> None:
        # Since interrupt() was called the process may have run -- its
        # first step, or its handler for an earlier interrupt at this
        # instant -- and be in a new wait, which must not outlive this.
        self._cancel_wait()
        self._throw(poke._exception)

    def _throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            return
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate into waiters
            self.sim._note_failure(self, err)
            self.fail(err)
            return
        self._wait_on(target)

    def _resume(self, event: Union[Event, _Tick]) -> None:
        self._waiting_on = None
        try:
            if event._exception is not None:
                target = self.generator.throw(event._exception)
            else:
                target = self.generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate into waiters
            self.sim._note_failure(self, err)
            self.fail(err)
            return
        # Inlined _wait_on fast paths: _resume is the single hottest
        # kernel function.  A bare number is a sleep on the tick (no
        # call, no allocation); nearly every other yield hands back a
        # pending event in this simulator.
        cls = target.__class__
        if cls is float or cls is int:
            tick = self._tick
            if tick is not None:
                sim = self.sim
                now = sim._now
                when = now + target
                if when > now:
                    self._waiting_on = tick
                    seq = sim._seq = sim._seq + 1
                    heappush(sim._queue, (when, seq, tick))
                    return
                if target >= 0:  # zero, or too small to move the clock
                    self._waiting_on = tick
                    sim._lane.append(tick)
                    return
        elif (
            isinstance(target, Event)
            and target.sim is self.sim
            and not target._processed
        ):
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)
            return
        self._wait_on(target)

    def _schedule_tick(self, delay: float) -> None:
        """A bare-number sleep off :meth:`_resume`'s fast path: a bad
        delay, a tick retired by an interrupt, a sleep after a throw."""
        if not delay >= 0:  # negative or NaN
            self._throw(SimulationError(f"negative timeout delay: {delay}"))
            return
        tick = self._tick
        if tick is None:
            tick = self._tick = _Tick(self._resume_cb)
        self._waiting_on = tick
        sim = self.sim
        now = sim._now
        when = now + delay
        if when > now:
            seq = sim._seq = sim._seq + 1
            heappush(sim._queue, (when, seq, tick))
        else:
            sim._lane.append(tick)

    def _wait_on(self, target: Any) -> None:
        cls = target.__class__
        if cls is float or cls is int:
            self._schedule_tick(target)
        elif not isinstance(target, Event):
            self._throw(
                SimulationError(f"process {self.name!r} yielded non-event {target!r}")
            )
        elif target.sim is not self.sim:
            self._throw(SimulationError("yielded event belongs to another simulator"))
        elif not target._processed:
            self._waiting_on = target
            target.callbacks.append(self._resume_cb)
        else:
            # Already fired: resume at this instant, through a hop of
            # its own that an interrupt can cancel like any other wait.
            self._waiting_on = _Poke(
                self.sim, self._resume_cb, target._value, target._exception
            )


class _Condition(Event):
    """Base for AllOf/AnyOf composition events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event._processed:
                self._observe(event)
            else:
                event.callbacks.append(self._observe)

    def _observe(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is the value list."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is (event, value)."""

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self.succeed((event, event._value))


class Ids:
    """The id streams one simulation mints, each at its canonical start.

    A QP number, WR id, rkey, sandbox id ... is only ever compared
    within one simulation, and it lands in trace events, so it is
    minted here: a run's ids are a pure function of its own
    construction order, whatever ran before it in the process.
    """

    __slots__ = (
        "qpn", "wr", "key", "pd", "chain", "txn", "span", "trace",
        "sandbox", "rpc", "deploy",
    )

    def __init__(self):
        self.qpn = count(0x11)  # QueuePair.qpn
        self.wr = count(1)  # WorkRequest.wr_id
        self.key = count(0x1000)  # MR lkeys and rkeys
        self.pd = count(1)  # ProtectionDomain.handle
        self.chain = count(1)  # hb doorbell-batch ids
        self.txn = count(1)  # hb deploy-transaction ids
        self.span = count(1)  # Span.span_id
        self.trace = count(1)  # Span.trace_id
        self.sandbox = count(1)  # Sandbox.sandbox_id
        self.rpc = count(1)  # RpcRequest.rpc_id
        self.deploy = count(1)  # DeployReport.deploy_id


class Simulator:
    """The event calendar and virtual clock.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield 5
    ...     return sim.now
    >>> proc = sim.spawn(hello())
    >>> sim.run()
    >>> proc.value
    5.0
    """

    def __init__(self):
        self._now = 0.0
        #: The future: ``(when, seq, entry)``; ``seq`` counts heap
        #: pushes, so equal times pop in scheduling order.
        self._queue: list[tuple[float, int, Union[Event, _Tick]]] = []
        #: The present: entries scheduled for the instant they were
        #: created in, in that order.  Always at ``now``, so they also
        #: survive from one ``run`` call to the next.
        self._lane: deque[Union[Event, _Tick]] = deque()
        self._seq = 0
        self._spawned = 0
        self._processed_events = 0
        #: (process name, exception) for every process that died with
        #: an unhandled exception -- including background processes
        #: nothing was waiting on.  Check this when a simulation's
        #: results look mysteriously incomplete.
        self.failed_processes: list[tuple[str, BaseException]] = []
        #: Every id this simulation mints (``next(sim.ids.wr)``).
        self.ids = Ids()

    def _note_failure(self, process: "Process", err: BaseException) -> None:
        # Interrupts are cooperative cancellation, not failures.
        if not isinstance(err, Interrupt):
            self.failed_processes.append((process.name, err))

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (for diagnostics)."""
        return self._processed_events

    # -- factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a pending event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now.

        A process that only sleeps yields the number instead (see
        :class:`Process`); this is for a timer that is held, composed
        or carries a value.
        """
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator at the current time."""
        self._spawned += 1
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution ---------------------------------------------------

    def _dispatch(self, until: float, stop: Event) -> None:
        """The one dispatch loop: fire entries in ``(when, scheduling
        order)`` until ``stop`` triggers, the calendar drains or the
        next entry lies beyond ``until``.

        A heap entry at ``now`` goes before the lane: it was pushed at
        an earlier instant (at this one it would have gone to the lane),
        so it was scheduled before everything the lane holds.
        """
        queue = self._queue
        lane = self._lane
        now = self._now
        processed = self._processed_events
        try:
            while not stop._triggered:
                if lane:
                    if queue and queue[0][0] == now:
                        entry = heappop(queue)[2]
                    else:
                        entry = lane.popleft()
                elif queue:
                    item = heappop(queue)
                    now, _seq, entry = item
                    if now > until:
                        heappush(queue, item)  # same key: same place
                        break
                    self._now = now
                else:
                    break
                processed += 1
                callbacks = entry.callbacks
                if callbacks is None:  # a tick: call its process, if not retired
                    wake = entry.wake
                    if wake is not None:
                        wake(entry)
                else:
                    entry._processed = True
                    if callbacks:
                        entry.callbacks = []
                        for callback in callbacks:
                            callback(entry)
        finally:
            self._processed_events = processed

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if no event lands on that instant, so back-to-back ``run``
        calls compose predictably.
        """
        if until is None:
            self._dispatch(_FOREVER, Event(self))
            return
        if until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        self._dispatch(until, Event(self))
        self._now = until

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn ``generator``, run until *it* completes, return its value.

        Stops as soon as the process finishes -- long-lived background
        processes (pollers, probes, workload loops) keep their pending
        events on the calendar and continue on the next ``run`` call,
        instead of being drained to exhaustion here.
        """
        proc = self.spawn(generator, name=name)
        self._dispatch(_FOREVER, proc)
        if not proc._triggered:
            raise SimulationError(
                f"process {proc.name!r} never completed (deadlock?)"
            )
        return proc.value

"""Event calendar, events, and the generator-based process model.

The kernel is deliberately small and deterministic: two runs of the same
simulation with the same seeds produce identical event orderings.  Ties
in timestamp are broken by insertion order (a monotonically increasing
sequence number), never by object identity.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional


#: One microsecond -- the base unit of simulated time.
US = 1.0
#: One millisecond in microseconds.
MS = 1_000.0
#: One second in microseconds.
S = 1_000_000.0


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
        self.sim._enqueue(self)
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
        self.sim._enqueue(self)
        return self


class _Poke(Event):
    """A pre-triggered single-callback event, minimally constructed.

    The kernel enqueues thousands of these (process bootstraps,
    interrupts, resumes on already-processed events); they are never
    yielded, waited on, or observed from user code, so the full
    :class:`Event` construction protocol (pending state, ``succeed``
    double-trigger checks) is pure overhead.  Dispatch only touches
    ``callbacks`` / ``_processed`` / ``_value`` / ``_exception``, which
    is all this initializer fills in.
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
        seq = sim._seq = sim._seq + 1
        heappush(sim._queue, (sim._now, seq, self))


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ + enqueue: timeouts are the single
        # most-allocated object in the simulator, so they skip the
        # two-level constructor and the _enqueue call.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self.delay = delay
        seq = sim._seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, seq, self))


class _Tick(Event):
    """A process's reusable timeout carrier for bare-number yields.

    A process waits on at most one thing at a time, so one tick object
    per process can carry *every* ``yield <float>`` it ever makes: each
    use re-arms ``_processed``/``callbacks`` and pushes the same object
    back on the calendar.  This removes the per-slice :class:`Timeout`
    allocation from the hottest kernel loop (CPU quantum slicing at
    rack scale allocates one otherwise-identical timeout per slice).
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = True
        self._processed = False


class Process(Event):
    """A running generator; completes (as an event) when it returns.

    The wrapped generator yields :class:`Event` instances.  When a
    yielded event fires, the generator is resumed with the event's value
    (or the event's exception is thrown into it).  A bare ``int`` or
    ``float`` yield is a timeout of that many microseconds, serviced by
    the process's reusable :class:`_Tick` with no allocation.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_resume_cb", "_tick")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        #: One bound method for the process's whole life -- every
        #: ``callbacks.append(self._resume)`` would otherwise allocate
        #: a fresh bound-method object per yield.
        self._resume_cb = self._resume
        #: Lazily-built reusable timeout carrier for bare-number yields.
        self._tick: Optional[_Tick] = None
        # Bootstrap: resume once at spawn time (time "now").
        _Poke(sim, self._resume_cb)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a completed process is a no-op.
        """
        if not self.is_alive:
            return
        target = self._waiting_on
        if target is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
            if target is self._tick:
                # The tick stays queued (inert: no callbacks) -- retire
                # it so a later bare-number yield can't re-arm an
                # object with a stale, earlier calendar entry.
                self._tick = None
            self._waiting_on = None
        _Poke(self.sim, lambda _ev: self._throw(Interrupt(cause)))

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

    def _resume(self, event: Event) -> None:
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
        # kernel function.  A bare number is a timeout serviced by the
        # reusable tick (no allocation); nearly every other yield hands
        # back a pending event in this simulator.
        cls = target.__class__
        if cls is float or cls is int:
            self._schedule_tick(target)
            return
        if isinstance(target, Event) and target.sim is self.sim:
            self._waiting_on = target
            if not target._processed:
                target.callbacks.append(self._resume_cb)
            else:
                _Poke(
                    self.sim, self._resume_cb, target._value, target._exception
                )
            return
        self._wait_on(target)

    def _schedule_tick(self, delay: float) -> None:
        """Arm the reusable tick ``delay`` microseconds out."""
        if delay < 0:
            self._throw(SimulationError(f"negative timeout delay: {delay}"))
            return
        tick = self._tick
        if tick is None:
            tick = self._tick = _Tick(self.sim)
        tick._processed = False
        tick.callbacks.append(self._resume_cb)
        self._waiting_on = tick
        sim = self.sim
        seq = sim._seq = sim._seq + 1
        heappush(sim._queue, (sim._now + delay, seq, tick))

    def _wait_on(self, target: Any) -> None:
        cls = target.__class__
        if cls is float or cls is int:
            self._schedule_tick(target)
            return
        # Fast path next: a pending event in this simulator is what
        # nearly every yield hands back.
        if isinstance(target, Event) and target.sim is self.sim:
            self._waiting_on = target
            if not target._processed:
                target.callbacks.append(self._resume_cb)
            else:
                # Already fired: resume immediately (same timestamp).
                _Poke(
                    self.sim, self._resume_cb, target._value, target._exception
                )
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            self._throw(exc)
            return
        self._throw(SimulationError("yielded event belongs to another simulator"))


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


class Simulator:
    """The event calendar and virtual clock.

    >>> sim = Simulator()
    >>> def hello():
    ...     yield sim.timeout(5)
    ...     return sim.now
    >>> proc = sim.spawn(hello())
    >>> sim.run()
    >>> proc.value
    5.0
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._spawned = 0
        self._processed_events = 0
        #: (process name, exception) for every process that died with
        #: an unhandled exception -- including background processes
        #: nothing was waiting on.  Check this when a simulation's
        #: results look mysteriously incomplete.
        self.failed_processes: list[tuple[str, BaseException]] = []

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

    def _enqueue(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, event))

    # -- factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a pending event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
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

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock passes ``until``.

        When ``until`` is given, the clock is left exactly at ``until``
        even if no event lands on that instant, so back-to-back ``run``
        calls compose predictably.

        Dispatch is inlined in the loops below (and in
        :meth:`run_process`): popping an event marks it processed and
        runs its callbacks, with no per-event method call.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})"
            )
        queue = self._queue
        processed = self._processed_events
        try:
            if until is None:
                while queue:
                    when, _seq, event = heappop(queue)
                    self._now = when
                    processed += 1
                    event._processed = True
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = []
                        for callback in callbacks:
                            callback(event)
            else:
                while queue:
                    if queue[0][0] > until:
                        self._now = until
                        return
                    when, _seq, event = heappop(queue)
                    self._now = when
                    processed += 1
                    event._processed = True
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = []
                        for callback in callbacks:
                            callback(event)
                self._now = until
        finally:
            self._processed_events = processed

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Spawn ``generator``, run until *it* completes, return its value.

        Stops as soon as the process finishes -- long-lived background
        processes (pollers, probes, workload loops) keep their pending
        events on the calendar and continue on the next ``run`` call,
        instead of being drained to exhaustion here.
        """
        proc = self.spawn(generator, name=name)
        queue = self._queue
        processed = self._processed_events
        try:
            while not proc._triggered and queue:
                when, _seq, event = heappop(queue)
                self._now = when
                processed += 1
                event._processed = True
                callbacks = event.callbacks
                if callbacks:
                    event.callbacks = []
                    for callback in callbacks:
                        callback(event)
        finally:
            self._processed_events = processed
        if not proc._triggered:
            raise SimulationError(
                f"process {proc.name!r} never completed (deadlock?)"
            )
        return proc.value

"""Discrete-event simulation kernel.

This package provides the simulated clock, process model, and shared
resources on which every other subsystem in :mod:`repro` runs.  The
design follows the classic event-calendar architecture (SimPy-style):

* :class:`~repro.sim.core.Simulator` owns the calendar -- a heap of
  timestamped entries for the future and a FIFO lane for the current
  instant -- and advances virtual time from entry to entry; wake-ups at
  one timestamp fire in the order they were scheduled.
* :class:`~repro.sim.core.Process` wraps a Python generator; the
  generator sleeps by yielding a number of microseconds and waits by
  yielding an :class:`~repro.sim.core.Event` (a resource grant, a
  completion, a ``sim.timeout()`` that is held, composed or carries a
  value), and is resumed when that fires.
* :mod:`~repro.sim.resources` models contended hardware (CPU cores,
  locks, bounded queues) so that control-path and data-path work can
  interfere with each other exactly as in the paper's §2.2.

All simulated time is expressed in **microseconds** (floats).  The
constants :data:`US`, :data:`MS`, and :data:`S` convert between scales.
"""

from repro.sim.core import (
    US,
    MS,
    S,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Container, CPU, Mutex, Resource, Store
from repro.sim.trace import TraceRecorder, TraceEvent

__all__ = [
    "US",
    "MS",
    "S",
    "AllOf",
    "AnyOf",
    "CPU",
    "Container",
    "Event",
    "Interrupt",
    "Mutex",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TraceEvent",
    "TraceRecorder",
]

"""Happens-before race checking for one-sided RDX operations.

RDX's correctness rests on ordering claims about one-sided verbs --
commit CAS after body writes, epoch fence before bubble traffic, flush
before execute -- and none of those claims are visible in a pass/fail
test outcome.  This package makes them checkable: the RNIC, sync
layer, and sandbox emit canonical ``hb.*`` events into the existing
:class:`~repro.sim.trace.TraceRecorder`, a graph builder encodes the
verbs ordering model as happens-before edges with vector clocks, and
detectors flag event pairs that touch overlapping remote ranges
without an ordering path between them.

Layers (each its own module):

* :mod:`repro.hb.events` -- event schema, emit helpers, extraction
  from a recorder, and the active-simulator registry the pytest
  fixture drains.
* :mod:`repro.hb.graph` -- the ordering model as edges + vector
  clocks (see DESIGN.md §12 for which edges exist and why).
* :mod:`repro.hb.detect` -- race detectors over the graph.
* :mod:`repro.hb.checker` -- orchestration: check a recorder or a
  simulator, format findings, drive the pytest/CLI entry points.

Everything is gated on the simulation's ``config.hb_check``
(:class:`repro.params.Config`); with it off no events are recorded
and the hot WR path pays one attribute read per op.
"""

from repro.hb.checker import (
    check_active,
    check_recorder,
    check_sim,
    consume,
    format_findings,
    reset_active,
)
from repro.hb.detect import RaceFinding, detect_races
from repro.hb.events import HbEvent, active_sims, extract
from repro.hb.graph import HbGraph

__all__ = [
    "HbEvent",
    "HbGraph",
    "RaceFinding",
    "active_sims",
    "check_active",
    "check_recorder",
    "check_sim",
    "consume",
    "detect_races",
    "extract",
    "format_findings",
    "reset_active",
]

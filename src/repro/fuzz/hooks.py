"""Perturbation hooks: how a plan reaches into the simulation.

"Fuzz is on" *is* "a plan is installed on this simulator": the RNIC
and the fabric ask :func:`plan_of` once, at construction, and consult
the plan they got at their stochastic choice points (WR service,
completion delivery, message delay), so a normal run pays one
attribute read per WR and nothing else.

The plan rides on the :class:`~repro.sim.core.Simulator` instance
itself (like the telemetry hub), so two concurrently constructed
simulations can never cross tapes and there is no global registry to
reset between iterations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.fuzz.plan import SchedulePlan
    from repro.sim.core import Simulator

#: Attribute caching the plan on the simulator instance.
_SIM_ATTR = "_rdx_fuzz_plan"


def plan_of(sim: "Simulator") -> "Optional[SchedulePlan]":
    return getattr(sim, _SIM_ATTR, None)


def bind(
    sim: "Simulator", plan: "SchedulePlan", max_events: int
) -> TraceRecorder:
    """Install ``plan`` plus a fresh bounded trace recorder on ``sim``.

    Must run before any component touches :func:`telemetry_of` on this
    simulator (the fuzz engine creates the bare ``Simulator`` itself
    for exactly this reason).  The per-iteration recorder is the fuzz
    loop's memory bound: each iteration gets its own ring, torn down
    explicitly by the engine, and a ring that overflows marks the
    iteration inconclusive rather than growing without limit.
    """
    from repro.obs.telemetry import _SIM_ATTR as _TELEMETRY_ATTR, Telemetry

    if getattr(sim, _TELEMETRY_ATTR, None) is not None:
        raise RuntimeError(
            "fuzz bind() must precede the simulator's first telemetry use"
        )
    recorder = TraceRecorder(max_events=max_events)
    setattr(sim, _TELEMETRY_ATTR, Telemetry(sim, recorder=recorder))
    setattr(sim, _SIM_ATTR, plan)
    return recorder

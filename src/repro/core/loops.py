"""Data-driven control loops (paper §7, item 5).

"Data-driven control loops for datacenter resource management": the
control plane already reads every target's XState over one-sided RDMA,
so it can close the loop -- watch counters, evaluate a policy, react
by deploying/retiring extensions -- without any host agent.

:class:`ControlLoop` is the generic loop; :class:`ThresholdPolicy`
implements the common case (deploy a guard extension when a counter
crosses a threshold, retire it on recovery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ReproError
from repro.core.codeflow import CodeFlow
from repro.core.xstate import XStateHandle


@dataclass
class LoopObservation:
    """One sampling round."""

    time_us: float
    values: dict[str, int]
    action: str = "none"


@dataclass
class ThresholdPolicy:
    """Deploy ``guard`` when ``counter_key`` >= high; retire at <= low.

    Hysteresis (high > low) prevents deploy/retire flapping.
    """

    counter_key: bytes
    high: int
    low: int
    guard_program: object
    hook_name: str

    def __post_init__(self):
        if self.low > self.high:
            raise ReproError("hysteresis requires low <= high")

    def decide(self, value: int, guard_live: bool) -> str:
        if not guard_live and value >= self.high:
            return "deploy"
        if guard_live and value <= self.low:
            return "retire"
        return "none"


class ControlLoop:
    """Watch one XState on one target; react per policy."""

    def __init__(
        self,
        codeflow: CodeFlow,
        xstate: XStateHandle,
        policy: ThresholdPolicy,
        interval_us: float = 1_000.0,
    ):
        self.codeflow = codeflow
        self.sim = codeflow.sim
        self.xstate = xstate
        self.policy = policy
        self.interval_us = interval_us
        self.observations: list[LoopObservation] = []
        self.guard_live = False
        self._proc = None

    def start(self, duration_us: float) -> None:
        """Run the loop in the background for ``duration_us``."""
        self._proc = self.sim.spawn(
            self._loop(duration_us), name="control-loop"
        )

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("loop stopped")
        self._proc = None

    def run_once(self) -> Generator:
        """One observe-decide-act round; returns the observation."""
        raw = yield from self.codeflow.xstate_lookup(
            self.xstate, self.policy.counter_key
        )
        value = int.from_bytes(raw or bytes(8), "little")
        action = self.policy.decide(value, self.guard_live)
        observation = LoopObservation(
            time_us=self.sim.now,
            values={"counter": value},
            action=action,
        )
        if action == "deploy":
            yield from self.codeflow.control_plane.inject(
                self.codeflow, self.policy.guard_program, self.policy.hook_name
            )
            self.guard_live = True
        elif action == "retire":
            yield from self.codeflow.detach(self.policy.guard_program.name)
            self.guard_live = False
        self.observations.append(observation)
        return observation

    def _loop(self, duration_us: float) -> Generator:
        end = self.sim.now + duration_us
        while self.sim.now < end:
            yield self.sim.timeout(self.interval_us)
            yield from self.run_once()

    # -- reporting -------------------------------------------------------

    def actions(self) -> list[tuple[float, str]]:
        return [
            (obs.time_us, obs.action)
            for obs in self.observations
            if obs.action != "none"
        ]

    def reaction_latency_us(self) -> Optional[float]:
        """Time from the first above-threshold sample to the deploy."""
        above_at = None
        for obs in self.observations:
            if above_at is None and obs.values["counter"] >= self.policy.high:
                above_at = obs.time_us
            if obs.action == "deploy" and above_at is not None:
                return obs.time_us - above_at
        return None

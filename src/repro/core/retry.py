"""Retry policy for one-sided operations against unreliable targets.

RDX's control plane talks to targets exclusively through one-sided
RDMA, so every transport hiccup surfaces at the initiator as a failed
work completion.  :class:`RetryPolicy` is the one place that decides
how those failures are absorbed: bounded attempts, exponential backoff
with *seeded* jitter (two contenders retrying in lockstep livelock --
the jitter decorrelates them deterministically), and an optional
per-operation deadline in simulated time.

Only :class:`~repro.errors.TransientFault` (and its subclass
:class:`~repro.errors.HostUnreachable`) is retried; everything else --
protection errors, verifier rejections, CAS conflicts -- is a logical
failure where retrying the same bytes cannot help.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro import params
from repro.errors import DeadlineExceeded, TransientFault
from repro.obs import telemetry_of


@dataclass(frozen=True)
class RetryPolicy:
    """How to retry a transiently failing operation.

    ``backoff_us(attempt)`` grows geometrically from ``backoff_base_us``
    and is capped at ``backoff_max_us``; a seeded RNG contributes up to
    ``jitter_frac`` of the nominal delay on top, so contenders with
    different seeds spread out instead of colliding every round.
    ``deadline_us`` bounds the *whole* operation (attempts + backoffs)
    in simulated time; exceeding it raises
    :class:`~repro.errors.DeadlineExceeded`.
    """

    max_attempts: int = params.RETRY_MAX_ATTEMPTS
    backoff_base_us: float = params.RETRY_BACKOFF_BASE_US
    backoff_multiplier: float = 2.0
    backoff_max_us: float = params.RETRY_BACKOFF_MAX_US
    jitter_frac: float = 0.5
    deadline_us: Optional[float] = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.backoff_base_us < 0 or self.backoff_max_us < 0:
            raise ValueError("backoff bounds must be non-negative")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError(f"jitter_frac out of [0, 1]: {self.jitter_frac}")

    def backoff_us(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before retry number ``attempt`` (1-based), jittered."""
        nominal = min(
            self.backoff_base_us * self.backoff_multiplier ** (attempt - 1),
            self.backoff_max_us,
        )
        if rng is None or self.jitter_frac == 0.0:
            return nominal
        return nominal * (1.0 + self.jitter_frac * rng.random())

    def run(
        self,
        sim,
        post: Callable[[], object],
        settle: Callable[[object, str], object],
        what: str = "OP",
        rng: Optional[random.Random] = None,
        inject: Optional[BaseException] = None,
    ) -> Generator:
        """Drive one operation to success within the budget.

        An attempt calls ``post()``, which starts it and returns what
        to wait on, and hands the outcome to ``settle(outcome, what)``,
        which returns the result or raises.  Transient faults are
        absorbed with backoff until ``max_attempts`` or ``deadline_us``
        runs out; the terminal error is then re-raised (wrapped in
        :class:`DeadlineExceeded` when the clock, not the attempt
        count, was the binding constraint).  ``inject`` makes the
        *first* attempt fail with that exception after the transport
        timeout -- the op went out, its ACK never came -- so a
        retryable injection is absorbed like any other hiccup.
        ``what`` names the operation in messages; the ``rdx.retry.*``
        counters carry it lower-cased as their ``op`` label, and the
        telemetry hub is only looked up when one of them counts.
        """
        started = sim.now
        last_fault: Optional[TransientFault] = None
        for attempt in range(1, self.max_attempts + 1):
            if (
                self.deadline_us is not None
                and sim.now - started >= self.deadline_us
            ):
                op = what.lower()
                telemetry_of(sim).counter(
                    "rdx.retry.deadline_expired", op=op
                ).inc()
                raise DeadlineExceeded(
                    f"{op}: deadline {self.deadline_us}us expired after "
                    f"{attempt - 1} attempts"
                ) from last_fault
            try:
                if inject is not None:
                    error, inject = inject, None
                    yield params.RDMA_RETRY_TIMEOUT_US
                    raise error
                outcome = yield post()
                result = settle(outcome, what)
            except TransientFault as fault:
                last_fault = fault
                obs = telemetry_of(sim)
                op = what.lower()
                obs.counter("rdx.retry.attempts", op=op).inc()
                if attempt == self.max_attempts:
                    obs.counter("rdx.retry.exhausted", op=op).inc()
                    raise
                delay = self.backoff_us(attempt, rng)
                obs.histogram("rdx.retry.backoff_us").observe(delay)
                yield sim.timeout(delay)
                continue
            if attempt > 1:
                telemetry_of(sim).counter(
                    "rdx.retry.absorbed", op=what.lower()
                ).inc()
            return result
        raise AssertionError("unreachable: loop either returns or raises")

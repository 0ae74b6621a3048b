"""QoS-aware isolation for the control plane (paper §7, item 2).

With many tenants sharing one RDX control plane, injection traffic
itself needs isolation: a tenant bulk-rolling 95K-insn programs must
not starve another tenant's microsecond hot-patch.  This module adds

* per-tenant **token buckets** over injection bytes (rate isolation),
* a **priority lane** so small/urgent deploys overtake bulk ones,
* per-tenant accounting for operators.

The scheduler wraps ``RdxControlPlane.inject``; everything else is
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator

from repro.errors import SecurityError
from repro.sim.core import Simulator
from repro.sim.resources import Resource


@dataclass
class TenantQuota:
    """Per-tenant injection budget."""

    name: str
    rate_bytes_per_s: float
    burst_bytes: float
    priority: int = 0  # lower = more urgent


@dataclass
class TenantUsage:
    deploys: int = 0
    bytes_injected: float = 0.0
    throttled_us: float = 0.0


class _TokenBucket:
    def __init__(self, sim: Simulator, rate_per_s: float, burst: float):
        self.sim = sim
        self.rate_per_us = rate_per_s / 1e6
        self.capacity = burst
        self._tokens = burst
        self._stamp = sim.now

    def _refill(self) -> None:
        now = self.sim.now
        self._tokens = min(
            self.capacity, self._tokens + (now - self._stamp) * self.rate_per_us
        )
        self._stamp = now

    def delay_for(self, amount: float) -> float:
        """Microseconds until ``amount`` tokens are available (a peek).

        Advisory only: the balance can move before the caller acts on
        the answer.  Anything that intends to *spend* the tokens must
        use :meth:`reserve`, which debits atomically.
        """
        self._refill()
        if self._tokens >= amount:
            return 0.0
        return (amount - self._tokens) / self.rate_per_us

    def reserve(self, amount: float) -> float:
        """Atomically debit ``amount`` tokens; return the wait time.

        The debit happens immediately -- before the caller yields -- so
        two interleaved generators can never both observe the same
        balance and overdraw the budget (a ``delay_for`` peek followed
        by a separate debit let exactly that happen: both passed the
        check, both debited, and the tenant got double its rate).  A
        negative balance is a *reservation deficit*: the returned delay
        is how long the refill stream needs to repay it, so back-to-back
        reservers serialize at precisely the configured rate.
        """
        self._refill()
        self._tokens -= amount
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate_per_us


class QosScheduler:
    """Rate + priority isolation in front of a control plane."""

    def __init__(self, control_plane, wire_slots: int = 1):
        self.control_plane = control_plane
        self.sim = control_plane.sim
        self._quotas: dict[str, TenantQuota] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self.usage: dict[str, TenantUsage] = {}
        # The shared injection wire: priority queue of deploys.
        self._wire = Resource(self.sim, capacity=wire_slots)

    def register_tenant(self, quota: TenantQuota) -> None:
        if quota.name in self._quotas:
            raise SecurityError(f"tenant {quota.name!r} already registered")
        self._quotas[quota.name] = quota
        self._buckets[quota.name] = _TokenBucket(
            self.sim, quota.rate_bytes_per_s, quota.burst_bytes
        )
        self.usage[quota.name] = TenantUsage()

    def inject(
        self,
        tenant: str,
        codeflow,
        program,
        hook_name: str,
        **kwargs,
    ) -> Generator:
        """Tenant-scoped deploy: bucket-gated, priority-scheduled."""
        quota = self._quotas.get(tenant)
        if quota is None:
            raise SecurityError(f"unknown tenant {tenant!r}")
        usage = self.usage[tenant]
        size = program.size_bytes()

        # Rate gate: atomically reserve the bytes, then wait out the
        # deficit.  The reserve happens before any yield, so concurrent
        # deploys of one tenant serialize at the configured rate
        # instead of both sneaking under the same balance.
        bucket = self._buckets[tenant]
        delay = bucket.reserve(size)
        if delay > 0:
            usage.throttled_us += delay
            yield self.sim.timeout(delay)

        # Priority lane onto the shared wire.  The grant is awaited
        # inside the try: a deploy interrupted while queued withdraws.
        grant = self._wire.request(priority=quota.priority)
        try:
            yield grant
            report = yield from self.control_plane.inject(
                codeflow, program, hook_name, **kwargs
            )
        finally:
            self._wire.release(grant)
        usage.deploys += 1
        usage.bytes_injected += size
        return report

    def throttle_hint(self, tenant: str, size_bytes: float) -> float:
        """Advisory wait (us) a ``size_bytes`` deploy would incur now.

        A peek, not a reservation -- admission controllers use it to
        shed requests whose rate deficit exceeds policy instead of
        parking a worker on them.
        """
        quota = self._quotas.get(tenant)
        if quota is None:
            raise SecurityError(f"unknown tenant {tenant!r}")
        return self._buckets[tenant].delay_for(size_bytes)

    def tenant_report(self) -> dict[str, TenantUsage]:
        """Point-in-time *snapshot* of per-tenant accounting.

        Returns copies, not the live accumulators: callers sampling
        windows (benchmarks, billing sweeps) can hold two reports and
        diff them without the second mutating under the first.
        """
        return {name: replace(usage) for name, usage in self.usage.items()}

    def reset_usage(self) -> dict[str, TenantUsage]:
        """Zero the accumulators; returns the final pre-reset snapshot.

        The companion contract to :meth:`tenant_report` for windowed
        sampling: ``reset_usage()`` at a window edge yields the closed
        window's totals and opens a fresh one.
        """
        final = self.tenant_report()
        for name in self.usage:
            self.usage[name] = TenantUsage()
        return final

"""Lease-based target health detection over one-sided reads.

RDMA completions are not delivery guarantees, and the absence of a
completion is not a death certificate -- the initiator cannot tell a
crashed host from a slow link.  So health is a *lease*: each target
holds a lease that a successful heartbeat read renews.  Miss one
renewal and the target turns SUSPECT; miss enough and it is declared
DEAD.  A single successful read at any point snaps it back to ALIVE --
truth comes from reading remote state, never from local bookkeeping.

The heartbeat is an 8-byte one-sided READ of the sandbox control
block: no target CPU, no agent, and the same fencing word the epoch
protocol uses, so a probe doubles as a stale-epoch tripwire.

Consumers:

* ``rdx_broadcast`` fails SUSPECT/DEAD legs *immediately* instead of
  burning a full per-leg deadline on each one (graceful degradation
  around known-sick targets);
* the anti-entropy reconciler skips DEAD targets and schedules them
  for repair when they return.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro import params
from repro.errors import ReproError
from repro.obs import telemetry_of
from repro.core.codeflow import CodeFlow
from repro.core.retry import RetryPolicy


class TargetHealth(enum.Enum):
    """Lease states, ordered by decreasing confidence."""

    ALIVE = "alive"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass
class LeaseState:
    """One target's lease bookkeeping."""

    target: str
    health: TargetHealth = TargetHealth.ALIVE
    #: Simulated time of the last successful heartbeat.
    renewed_us: float = 0.0
    consecutive_misses: int = 0
    probes: int = 0
    transitions: int = 0


class HealthDetector:
    """Per-target ALIVE -> SUSPECT -> DEAD lease tracking.

    ``suspect_after`` / ``dead_after`` are consecutive-miss thresholds;
    the probe itself is bounded by a tight retry policy (one transport
    attempt -- the *lease*, not the transport layer, owns patience
    here, so a probe against a dead host costs one RDMA timeout, not a
    full backoff ladder).
    """

    def __init__(
        self,
        codeflows,
        interval_us: float = params.HEALTH_PROBE_INTERVAL_US,
        suspect_after: int = params.HEALTH_SUSPECT_MISSES,
        dead_after: int = params.HEALTH_DEAD_MISSES,
        scraper=None,
    ):
        if suspect_after < 1 or dead_after < suspect_after:
            raise ValueError(
                f"need 1 <= suspect_after <= dead_after, got "
                f"{suspect_after}/{dead_after}"
            )
        self.codeflows = {cf.sandbox.name: cf for cf in codeflows}
        #: target -> owning shard (metric aggregation key when
        #: per-target labels are off; see Telemetry.target_label).
        self._shards = {
            name: getattr(cf.control_plane, "shard", "")
            for name, cf in self.codeflows.items()
        }
        self.sim = next(iter(self.codeflows.values())).sim
        self.obs = telemetry_of(self.sim)
        self.interval_us = interval_us
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.leases: dict[str, LeaseState] = {
            name: LeaseState(target=name, renewed_us=self.sim.now)
            for name in self.codeflows
        }
        #: Single-attempt probe policy: misses are lease business.
        self._probe_retry = RetryPolicy(max_attempts=1, jitter_frac=0.0)
        #: Optional :class:`repro.obs.scrape.TelemetryScraper` invoked
        #: after each successful probe -- telemetry freshness rides
        #: the lease interval over the already-warm QP instead of
        #: owning a timer wheel of its own.
        self.scraper = scraper

    # -- queries ---------------------------------------------------------

    def state_of(self, target: str) -> TargetHealth:
        return self.leases[target].health

    def lease_of(self, target: str) -> LeaseState:
        return self.leases[target]

    def alive(self) -> list[str]:
        return sorted(
            name
            for name, lease in self.leases.items()
            if lease.health is TargetHealth.ALIVE
        )

    def unhealthy(self) -> list[str]:
        return sorted(
            name
            for name, lease in self.leases.items()
            if lease.health is not TargetHealth.ALIVE
        )

    # -- probing ---------------------------------------------------------

    def probe(self, target: str) -> Generator:
        """One heartbeat: read the target's control block; returns health.

        Success renews the lease (any state snaps back to ALIVE); a
        failed read is a miss that walks ALIVE -> SUSPECT -> DEAD.
        """
        codeflow = self.codeflows[target]
        lease = self.leases[target]
        lease.probes += 1
        self.obs.counter(
            "rdx.health.probes",
            target=self.obs.target_label(target, self._shards[target]),
        ).inc()
        saved_retry, codeflow.sync.retry = (
            codeflow.sync.retry, self._probe_retry
        )
        try:
            with self.obs.span("rdx.health.probe", target=target):
                yield from codeflow.sync.read(
                    codeflow.sandbox.control_addr, 8
                )
        except ReproError:
            self._miss(lease)
        else:
            self._renew(lease)
            if self.scraper is not None and target in getattr(
                self.scraper, "codeflows", {}
            ):
                # Piggyback: the lease just proved the path; scrape
                # the telemetry segment on the same round.  A torn
                # scrape is counted and skipped -- never a lease miss.
                try:
                    yield from self.scraper.scrape(target)
                except ReproError:
                    pass
        finally:
            codeflow.sync.retry = saved_retry
        return lease.health

    def probe_all(self) -> Generator:
        """Heartbeat every target once, in parallel; returns the states.

        More than one target runs as one batched sweep: every 8-byte
        READ goes out back to back with a single accounting pass at
        the end, instead of N independent probe processes each paying
        a span, a retry-policy swap, and per-probe metric writes.
        Lease semantics, fault-hook consultation, and the scraper
        piggyback are identical to :meth:`probe`, which a lone target
        gets.
        """
        if len(self.codeflows) > 1:
            return (yield from self._sweep())
        probes = [
            self.sim.spawn(self.probe(name), name=f"hb:{name}")
            for name in sorted(self.codeflows)
        ]
        yield self.sim.all_of(probes)
        return {name: lease.health for name, lease in self.leases.items()}

    def _sweep(self) -> Generator:
        """One batched heartbeat sweep over every target.

        The reads still ride each target's own QP (an RC chain cannot
        span QPs), but they are posted by lightweight read-only legs
        under the single-attempt probe policy -- no per-probe span, no
        per-probe retry-ladder bookkeeping -- and the probe counter is
        bumped once per sweep when labels aggregate per shard.
        """
        names = sorted(self.codeflows)
        outcomes: dict[str, bool] = {}
        legs = [
            self.sim.spawn(
                self._sweep_one(name, outcomes), name=f"hb-sweep:{name}"
            )
            for name in names
        ]
        yield self.sim.all_of(legs)
        by_label: dict[str, int] = {}
        for name in names:
            label = self.obs.target_label(name, self._shards[name])
            by_label[label] = by_label.get(label, 0) + 1
        for label, count in by_label.items():
            self.obs.counter("rdx.health.probes", target=label).inc(count)
        for name in names:
            lease = self.leases[name]
            lease.probes += 1
            if not outcomes.get(name, False):
                self._miss(lease)
                continue
            self._renew(lease)
            if self.scraper is not None and name in getattr(
                self.scraper, "codeflows", {}
            ):
                # Piggyback, same as the per-probe path: the sweep just
                # proved the path; a torn scrape is never a lease miss.
                try:
                    yield from self.scraper.scrape(name)
                except ReproError:
                    pass
        return {name: lease.health for name, lease in self.leases.items()}

    def _sweep_one(self, name: str, outcomes: dict) -> Generator:
        """One sweep leg: a bare 8-byte read, success recorded locally."""
        codeflow = self.codeflows[name]
        saved_retry, codeflow.sync.retry = (
            codeflow.sync.retry, self._probe_retry
        )
        try:
            yield from codeflow.sync.read(codeflow.sandbox.control_addr, 8)
        except ReproError:
            outcomes[name] = False
        else:
            outcomes[name] = True
        finally:
            codeflow.sync.retry = saved_retry

    def monitor(
        self, duration_us: float, interval_us: Optional[float] = None
    ) -> Generator:
        """Background lease loop: probe every target each interval."""
        interval = interval_us or self.interval_us
        end = self.sim.now + duration_us
        while self.sim.now < end:
            yield self.sim.timeout(interval)
            yield from self.probe_all()
        return {name: lease.health for name, lease in self.leases.items()}

    # -- lease mechanics -------------------------------------------------

    def _renew(self, lease: LeaseState) -> None:
        lease.renewed_us = self.sim.now
        lease.consecutive_misses = 0
        self._transition(lease, TargetHealth.ALIVE)

    def _miss(self, lease: LeaseState) -> None:
        lease.consecutive_misses += 1
        self.obs.counter(
            "rdx.health.misses",
            target=self.obs.target_label(lease.target, self._shards[lease.target]),
        ).inc()
        if lease.consecutive_misses >= self.dead_after:
            self._transition(lease, TargetHealth.DEAD)
        elif lease.consecutive_misses >= self.suspect_after:
            self._transition(lease, TargetHealth.SUSPECT)

    def _transition(self, lease: LeaseState, health: TargetHealth) -> None:
        if lease.health is health:
            return
        shard = self._shards[lease.target]
        self.obs.counter(
            "rdx.health.transitions",
            target=self.obs.target_label(lease.target, shard),
            to=health.value,
        ).inc()
        lease.health = health
        lease.transitions += 1
        if self.obs.per_target_labels:
            self.obs.gauge("rdx.health.state", target=lease.target).set(
                {"alive": 0, "suspect": 1, "dead": 2}[health.value]
            )
        else:
            # A per-target enum gauge aggregated to one series would be
            # last-writer noise; export shard-level state *occupancy*
            # instead (how many leases sit in each state).
            self._refresh_state_counts(shard)

    def _refresh_state_counts(self, shard: str) -> None:
        label = self.obs.target_label("", shard)
        counts = {state: 0 for state in TargetHealth}
        for name, lease in self.leases.items():
            if self._shards[name] == shard:
                counts[lease.health] += 1
        for state, count in counts.items():
            self.obs.gauge(
                "rdx.health.state_count", target=label, state=state.value
            ).set(count)

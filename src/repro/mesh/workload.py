"""Open-loop request workloads over a microservice app (Fig 2c).

Requests arrive Poisson at a configured rate, walk their call path,
and charge CPU at every hop (service logic + the sidecar filter
chain).  Because agents share the same cores, injection bursts steal
capacity from requests and vice versa -- the mutual contention of
§2.2 Obs 3.
"""

from __future__ import annotations

from repro.sim.rand import derive_rng
from dataclasses import dataclass, field
from typing import Generator

from repro import params
from repro.errors import SandboxCrash
from repro.mesh.apps import MicroserviceApp
from repro.wasm.runtime import DENY, RequestContext


@dataclass
class RequestRecord:
    """One completed (or failed) request."""

    started_us: float
    finished_us: float
    path: tuple[str, ...]
    versions: tuple[int, ...]
    denied: bool = False
    crashed: bool = False

    @property
    def latency_us(self) -> float:
        return self.finished_us - self.started_us

    @property
    def mixed_versions(self) -> bool:
        """True when hops ran different filter logic versions."""
        stamped = [v for v in self.versions if v]
        return len(set(stamped)) > 1


@dataclass
class RequestStats:
    """Aggregates over a workload run."""

    records: list[RequestRecord] = field(default_factory=list)
    offered: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if not r.denied and not r.crashed)

    @property
    def mixed(self) -> int:
        return sum(1 for r in self.records if r.mixed_versions)

    def completion_rate(self, window_us: float) -> float:
        """Completed requests per second over ``window_us``."""
        if window_us <= 0:
            return 0.0
        return self.completed / (window_us / 1e6)

    def latency_percentile(self, pct: float) -> float:
        done = sorted(
            r.latency_us for r in self.records if not r.denied and not r.crashed
        )
        if not done:
            return 0.0
        index = min(len(done) - 1, int(len(done) * pct / 100.0))
        return done[index]

    def mixed_window_us(self) -> float:
        """Span between the first and last mixed-version request."""
        times = [r.finished_us for r in self.records if r.mixed_versions]
        if not times:
            return 0.0
        return max(times) - min(times)


class OpenLoopLoad:
    """Poisson open-loop request generator against one app."""

    def __init__(
        self,
        app: MicroserviceApp,
        rate_per_s: float,
        seed: int = 0,
        hop_service_us: float = params.MESH_HOP_SERVICE_US,
        with_responses: bool = False,
    ):
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.app = app
        self.sim = app.sim
        self.rate_per_s = rate_per_s
        self.hop_service_us = hop_service_us
        self.with_responses = with_responses
        self._rng = derive_rng(seed, "mesh.workload")
        self.stats = RequestStats()
        self._running = False

    def run(self, duration_us: float) -> Generator:
        """Generate arrivals for ``duration_us``; completes when the
        last spawned request finishes."""
        self._running = True
        end = self.sim.now + duration_us
        inflight = []
        mean_gap_us = 1e6 / self.rate_per_s
        while self.sim.now < end:
            yield self.sim.timeout(self._rng.expovariate(1.0 / mean_gap_us))
            if self.sim.now >= end:
                break
            self.stats.offered += 1
            path_hash = self._rng.randrange(1 << 30)
            inflight.append(
                self.sim.spawn(
                    self._request(path_hash), name=f"req@{self.sim.now:.0f}"
                )
            )
        if inflight:
            yield self.sim.all_of(inflight)
        self._running = False
        return self.stats

    def _request(self, path_hash: int) -> Generator:
        started = self.sim.now
        path = self.app.call_path(path_hash)
        versions = []
        denied = False
        crashed = False
        for service in path:
            pod = self.app.pods[service]
            if pod.proxy.sandbox.bubble_active():
                # BBU: buffer until the bubble clears.
                while pod.proxy.sandbox.bubble_active():
                    yield self.sim.timeout(2.0)
            ctx = RequestContext(path_hash=path_hash, now_us=self.sim.now)
            try:
                verdict, filter_cost = pod.proxy.process_request(ctx)
            except SandboxCrash:
                crashed = True
                break
            versions.append(pod.proxy.versions_seen(ctx) or 0)
            # Request handling is time-sliced like any userspace work.
            yield from pod.host.cpu.run(
                self.hop_service_us + filter_cost, quantum_us=1_000.0
            )
            if verdict == DENY:
                denied = True
                break
        if self.with_responses and not denied and not crashed:
            # Unwind: each hop's sidecar filters the response.
            for service in reversed(path):
                pod = self.app.pods[service]
                ctx = RequestContext(path_hash=path_hash, now_us=self.sim.now)
                try:
                    verdict, filter_cost = pod.proxy.process_response(ctx)
                except SandboxCrash:
                    crashed = True
                    break
                yield from pod.host.cpu.run(filter_cost, quantum_us=1_000.0)
                if verdict == DENY:
                    denied = True
                    break
        self.stats.records.append(
            RequestRecord(
                started_us=started,
                finished_us=self.sim.now,
                path=tuple(path),
                versions=tuple(versions),
                denied=denied,
                crashed=crashed,
            )
        )

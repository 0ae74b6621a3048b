"""A Redis-like KV server for the agent-tax experiment (paper §6).

The server runs a closed set of worker loops pinned to its host CPU;
throughput is ops retired per second.  In the **agent** deployment the
same host also runs eBPF injections and periodic XState polling (the
"25.3% Redis degradation" channel); in the **RDX** deployment those
move off-host and the workers keep the cores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, Optional

from repro import params
from repro.errors import WorkloadError
from repro.net.topology import Host


@dataclass
class RedisLoadResult:
    """Outcome of one timed load run."""

    duration_us: float
    ops_done: int
    hits: int
    misses: int

    @property
    def throughput_ops_s(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.ops_done / (self.duration_us / 1e6)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.ops_done if self.ops_done else 0.0


class RedisLikeServer:
    """In-memory KV store with closed-loop worker threads."""

    def __init__(
        self,
        host: Host,
        n_workers: int = 4,
        op_service_us: float = params.REDIS_OP_SERVICE_US,
        keyspace: int = 10_000,
        seed: int = 11,
    ):
        if n_workers < 1:
            raise WorkloadError("need at least one worker")
        self.host = host
        self.sim = host.sim
        self.n_workers = n_workers
        self.op_service_us = op_service_us
        self.keyspace = keyspace
        self._rng = random.Random(seed)
        self._store: dict[int, int] = {}
        self.ops_done = 0
        self.hits = 0
        self.misses = 0

    # -- functional surface -----------------------------------------------

    def set_(self, key: int, value: int) -> None:
        self._store[key % self.keyspace] = value

    def get(self, key: int) -> Optional[int]:
        value = self._store.get(key % self.keyspace)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def __len__(self) -> int:
        return len(self._store)

    # -- timed load ----------------------------------------------------------

    def run_load(
        self, duration_us: float, write_ratio: float = 0.2
    ) -> Generator:
        """Run ``n_workers`` closed loops for ``duration_us``.

        Returns a :class:`RedisLoadResult`.  Each op costs
        ``op_service_us`` of host CPU, so anything else burning that
        CPU (an agent) directly reduces throughput.
        """
        start_ops = self.ops_done
        start_hits, start_misses = self.hits, self.misses
        started = self.sim.now
        workers = [
            self.sim.spawn(
                self._worker(started + duration_us, write_ratio, worker_id),
                name=f"redis-w{worker_id}",
            )
            for worker_id in range(self.n_workers)
        ]
        yield self.sim.all_of(workers)
        return RedisLoadResult(
            duration_us=self.sim.now - started,
            ops_done=self.ops_done - start_ops,
            hits=self.hits - start_hits,
            misses=self.misses - start_misses,
        )

    def _worker(
        self, end_us: float, write_ratio: float, worker_id: int
    ) -> Generator:
        rng = random.Random(worker_id * 7919 + 13)
        while self.sim.now < end_us:
            yield from self.host.cpu.run(self.op_service_us)
            key = rng.randrange(self.keyspace)
            if rng.random() < write_ratio:
                self.set_(key, rng.randrange(1 << 30))
            else:
                self.get(key)
            self.ops_done += 1

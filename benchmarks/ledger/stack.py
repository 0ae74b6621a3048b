"""What the three full-stack workloads share: the first-exec oracle,
seeded patchable programs, and the public counters every testbed has."""

from __future__ import annotations

import random

from repro.ebpf.interpreter import Interpreter
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import ReproError
from repro.obs import telemetry_of

#: The probe packet every first exec runs on.
CTX = bytes(range(256))


def oracle_r0(program) -> int:
    """What ``run_hook`` must return once ``program`` is live: the same
    program run through the interpreter locally."""
    return Interpreter(maps=[], time_ns=0).run(program.insns, CTX).r0


def patchable_program(rng: random.Random, nominal: int, jitter: int, name: str):
    """A seeded program of ``nominal`` + 0..jitter-1 insns that
    ``make_stress_variant`` can edit.

    Sizes that divide evenly into generator blocks have no padding
    no-op to patch; the next size up does.
    """
    size = nominal + rng.randrange(jitter)
    seed = rng.getrandbits(30)
    while True:
        program = make_stress_program(size, seed=seed, name=name)
        try:
            make_stress_variant(program, imm=1)
        except ReproError:
            size += 1
            continue
        return program


def series_total(sim, name: str) -> float:
    """Sum of every series of one counter family in ``sim``'s registry."""
    return sum(series.value for series in telemetry_of(sim).registry.series(name))


def transport_counters(sim, fabric) -> dict:
    """Public sim / rdma / net / sync counters, read at a boundary."""
    return {
        "sim.events": sim.processed_events,
        "rdma.wrs": series_total(sim, "rdma.verbs"),
        "rdma.bytes_dma": series_total(sim, "rdma.bytes_dma"),
        "net.messages": fabric.messages_sent,
        "net.bytes": fabric.bytes_sent,
        "net.dropped": fabric.messages_dropped,
        "sync.retry_attempts": series_total(sim, "rdx.retry.attempts"),
    }


def wrs_per_doorbell_p50(sim) -> float:
    return max(
        (series.percentile(50)
         for series in telemetry_of(sim).registry.series("rdma.wrs_per_doorbell")),
        default=0.0,
    )


def per_op_transport(counters: dict, ops: int) -> dict:
    """The rdma / net / sync per-layer metrics from ``transport_counters``
    (or a difference of two of them) over ``ops`` operations."""
    return {
        "sim.events_per_op": counters["sim.events"] / ops,
        "rdma.wrs_per_op": counters["rdma.wrs"] / ops,
        "rdma.bytes_dma_per_op": counters["rdma.bytes_dma"] / ops,
        "net.messages_per_op": counters["net.messages"] / ops,
        "net.bytes_per_op": counters["net.bytes"] / ops,
        "net.messages_dropped": float(counters["net.dropped"]),
        "core.sync.retry_attempts": float(counters["sync.retry_attempts"]),
    }

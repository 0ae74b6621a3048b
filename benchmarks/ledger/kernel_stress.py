"""kernel_stress: pure ``repro.sim``, three phases per segment.

Why it exists: it is the only workload where the sim kernel is ~all of
the CPU, so a kernel optimisation must show here -- and, because no
other layer runs, nowhere else.  The ``mixed`` phase is the
``exp/scale.py`` event mix (quantum-sliced, mixed-priority ``cpu.run``
plus a short ``sim.timeout`` on 1,024 uncontended two-core pools); the
``timer`` and ``grant`` phases isolate the two paths that mix blends,
so a timer-wheel win that costs the contended grant path shows.

Op = one node iteration.  Closed system, no arrivals: every node loops
a fixed, seeded number of times.
"""

from __future__ import annotations

import random

from repro.sim.core import Simulator
from repro.sim.resources import CPU

from harness import (
    Config,
    Digest,
    FailureLedger,
    Recorder,
    Segment,
    Stopwatch,
    measure,
    percentile,
    summarize,
)

PHASES = ("mixed", "timer", "grant")


def _shape(cfg: Config) -> dict:
    if cfg.smoke:
        return {"pools": 128, "mixed_iters": 20, "timer_iters": 80,
                "grant_pools": 32, "grant_nodes": 8, "grant_iters": 10}
    # Short segments, many of them: the host's interference comes in
    # bursts, and best-of-k only escapes bursts shorter than a segment.
    return {"pools": 1024, "mixed_iters": 10, "timer_iters": 40,
            "grant_pools": 256, "grant_nodes": 8, "grant_iters": 5}


def make_inputs(cfg: Config) -> dict:
    """Per-node seeded parameters; the program sees only these."""
    rng = random.Random(cfg.seed)
    shape = _shape(cfg)
    return {
        **shape,
        # (cost offset, pause us) per mixed node: the exp/scale mix,
        # with the node number replaced by seeded draws.
        "mixed": [
            (rng.randrange(3), 0.1 + rng.random() * 0.05)
            for _ in range(shape["pools"])
        ],
        "timer": [0.2 + rng.random() * 0.1 for _ in range(shape["pools"])],
        # (cost offset, priority offset, cost scale) per contending grant node.
        "grant": [
            (rng.randrange(3), rng.randrange(2), 1.0 + rng.random() * 0.1)
            for _ in range(shape["grant_pools"] * shape["grant_nodes"])
        ],
    }


def _mixed_node(sim, cpu, iters, offset, pause, finished, node):
    for i in range(iters):
        cost = 1.0 + ((offset + i) % 3)
        yield from cpu.run(cost, priority=i % 2, quantum_us=0.5)
        yield sim.timeout(pause)
    finished.append((node, sim.now))


def _timer_node(sim, iters, delay, finished, node):
    for _ in range(iters):
        yield sim.timeout(delay)
    finished.append((node, sim.now))


def _grant_node(sim, cpu, iters, offset, prio, scale, finished, node):
    # Eight nodes share a two-core pool and never sleep between tasks,
    # so every claim after the first two queues for a grant.
    for i in range(iters):
        cost = (1.0 + ((offset + i) % 3)) * scale
        yield from cpu.run(cost, priority=(prio + i) % 2)
    finished.append((node, sim.now))


def _build(phase: str, inputs: dict):
    """A fresh simulator with the phase's nodes spawned; returns
    (sim, finished list, ops, iterations per node)."""
    sim = Simulator()
    finished: list = []
    if phase == "mixed":
        iters = inputs["mixed_iters"]
        for node, (offset, pause) in enumerate(inputs["mixed"]):
            cpu = CPU(sim, cores=2, name=f"n{node}.cpu")
            sim.spawn(
                _mixed_node(sim, cpu, iters, offset, pause, finished, node),
                name=f"n{node}",
            )
        return sim, finished, iters * len(inputs["mixed"]), iters
    if phase == "timer":
        iters = inputs["timer_iters"]
        for node, delay in enumerate(inputs["timer"]):
            sim.spawn(_timer_node(sim, iters, delay, finished, node), name=f"t{node}")
        return sim, finished, iters * len(inputs["timer"]), iters
    iters = inputs["grant_iters"]
    per_pool = inputs["grant_nodes"]
    cpus = [
        CPU(sim, cores=2, name=f"g{pool}.cpu")
        for pool in range(inputs["grant_pools"])
    ]
    for node, (offset, prio, scale) in enumerate(inputs["grant"]):
        sim.spawn(
            _grant_node(
                sim, cpus[node // per_pool], iters, offset, prio, scale,
                finished, node,
            ),
            name=f"g{node}",
        )
    return sim, finished, iters * len(inputs["grant"]), iters


def one_segment(inputs: dict, rec: Recorder) -> Segment:
    """Build and run the three phases; the mixed phase is the headline."""
    digest = Digest()
    sim_values: dict = {}
    phases: dict = {}
    setup_s = 0.0
    for phase in PHASES:
        with Stopwatch() as build:
            sim, finished, ops, iters = _build(phase, inputs)
        setup_s += build.cpu_s
        rec.bind(sim)  # each phase has its own simulator, so no parent span
        with rec.timed() as watch, rec.span(f"sim.run.{phase}"):
            sim.run()
        latencies = [done_at / iters for _node, done_at in finished]
        phases[phase] = {
            "ops": ops, "cpu_s": watch.cpu_s, "wall_s": watch.wall_s,
            "events": sim.processed_events, "latencies": latencies,
            "stuck": ops // iters - len(finished) + len(sim.failed_processes),
        }
        sim_values[f"{phase}_p50_us"] = percentile(latencies, 50.0)
        sim_values[f"{phase}_makespan_us"] = sim.now
        digest.add(phase, sim.now, *(node for node, _ in finished))
    mixed = phases["mixed"]
    return Segment(
        ops=mixed["ops"], cpu_s=mixed["cpu_s"], wall_s=mixed["wall_s"],
        setup_s=setup_s, sim=sim_values,
        extra={"phases": phases, "digest": digest.hexdigest()},
    )


def run(cfg: Config) -> dict:
    with Stopwatch() as gen:
        inputs = make_inputs(cfg)
    measured = measure(cfg, lambda rec: one_segment(inputs, rec))
    first = measured.first
    phases = first.extra["phases"]

    ledger = FailureLedger()
    for phase in PHASES:
        ledger.attempt(phases[phase]["ops"])
        if phases[phase]["stuck"]:
            ledger.fail(f"{phase}-node-stuck", phases[phase]["stuck"])

    def best_rate(phase: str) -> float:
        return max(
            seg.extra["phases"][phase]["ops"] / seg.extra["phases"][phase]["cpu_s"]
            for seg in measured.untraced.kept
        )

    mixed = phases["mixed"]
    metrics = {
        "ops_per_cpu_s": measured.untraced.best_rate,
        "kernel_mixed_p50_us": first.sim["mixed_p50_us"],
        "kernel_timer_p50_us": first.sim["timer_p50_us"],
        "kernel_grant_p50_us": first.sim["grant_p50_us"],
        "kernel_goodput_per_sim_s": mixed["ops"] / (first.sim["mixed_makespan_us"] / 1e6),
        "sim.events_per_op": mixed["events"] / mixed["ops"],
        "sim.timer_ops_per_cpu_s": best_rate("timer"),
        "sim.grant_ops_per_cpu_s": best_rate("grant"),
    }
    timings = {
        f"kernel_{phase}_us": summarize(phases[phase]["latencies"]) for phase in PHASES
    }
    return {
        "measured": measured,
        "ledger": ledger,
        "digest": first.extra["digest"],
        "metrics": metrics,
        "timings": timings,
        "input_setup_s": gen.cpu_s,
    }

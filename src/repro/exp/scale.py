"""Rack-scale experiment plumbing: sharded testbeds and scale probes.

The PR-4/PR-7 benches stop at 8 targets -- one control plane, one flat
fan-out.  This module builds the rack-scale arrangements the scale
bench (``benchmarks/bench_scale.py``) sweeps:

* :func:`sharded_testbed` -- N data hosts partitioned across K
  control-plane shards (each shard a full control *host* on the shared
  fabric, not a thread on one box), wired into per-shard
  :class:`~repro.core.broadcast.CodeFlowGroup`\\ s plus one
  :class:`~repro.core.shard.ShardedGroup` collective handle;
* :func:`broadcast_window` -- one measured broadcast at a given scale
  under a chosen arm (flat / tree / sharded-tree), returning the
  bubble window;
* :func:`kernel_throughput` -- a pure sim-kernel stress (no RDX stack)
  measuring dispatched events per wall-clock second.

Each probe builds its own simulator on its own arm, so probes compose
with each other and with the surrounding test process.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

from repro import params
from repro.core.api import bootstrap_sandbox
from repro.core.broadcast import CodeFlowGroup
from repro.core.control_plane import RdxControlPlane
from repro.core.shard import ShardedGroup, partition
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed
from repro.net.topology import Cluster, Host
from repro.obs import Telemetry, telemetry_of
from repro.sandbox.sandbox import Sandbox
from repro.sim.core import Simulator
from repro.sim.resources import CPU
from repro.sim.trace import TraceRecorder


@dataclass
class ShardedTestbed:
    """A rack with K control-plane shards instead of one control host."""

    sim: Simulator
    cluster: Cluster
    sandboxes: list[Sandbox]
    planes: list[RdxControlPlane]
    groups: list[CodeFlowGroup]
    sharded: ShardedGroup
    trace: TraceRecorder

    @property
    def obs(self) -> Telemetry:
        return telemetry_of(self.sim)

    @property
    def codeflows(self) -> list:
        return self.sharded.codeflows


def sharded_testbed(
    n_hosts: int,
    shards: int,
    cores_per_host: int = 4,
    hooks: tuple[str, ...] = ("ingress",),
    seed: int = 0,
    sim: Optional[Simulator] = None,
) -> ShardedTestbed:
    """Build N data hosts owned by K control-plane shards.

    Each shard is a dedicated control host (``ctrl0`` .. ``ctrlK-1``)
    on the cluster fabric running its own
    :class:`~repro.core.control_plane.RdxControlPlane` -- own journal,
    own epoch, own RNIC -- over a contiguous partition of the
    sandboxes, exactly the deployment §2 of the issue describes.
    """
    if sim is None:
        sim = Simulator()
    trace = TraceRecorder(enabled=False)
    cluster = Cluster(
        sim, n_hosts=n_hosts, cores_per_host=cores_per_host,
        dram_bytes=64 * 2**20, with_control_host=False, seed=seed,
    )
    sandboxes = []
    for host in cluster.hosts:
        sandbox = Sandbox(host, hooks=hooks)
        bootstrap_sandbox(sandbox)
        sandboxes.append(sandbox)

    planes = []
    groups = []
    for index, owned in enumerate(partition(sandboxes, shards)):
        control_host = Host(
            sim, f"ctrl{index}", cores=params.HOST_CORES,
            dram_bytes=64 * 2**20, seed=seed + index,
        )
        cluster.fabric.attach(control_host)
        plane = RdxControlPlane(
            control_host, trace=trace, shard=f"shard{index}"
        )
        codeflows = [
            sim.run_process(plane.create_codeflow(sandbox))
            for sandbox in owned
        ]
        planes.append(plane)
        groups.append(CodeFlowGroup(codeflows))
    return ShardedTestbed(
        sim=sim, cluster=cluster, sandboxes=sandboxes,
        planes=planes, groups=groups, sharded=ShardedGroup(groups),
        trace=trace,
    )


def _programs(n: int, seed: int) -> list:
    return [
        make_stress_program(400, seed=seed * 31 + i, name=f"p{i}")
        for i in range(n)
    ]


def broadcast_window(
    n_targets: int,
    tree: bool = True,
    shards: int = 1,
    degree: Optional[int] = None,
    seed: int = 0,
) -> float:
    """One measured broadcast at ``n_targets``; returns the bubble
    window in microseconds.

    Arms: ``tree=False, shards=1`` is the flat PR-4 fan-out (the
    ablation baseline); ``tree=True`` turns on relay fan-out;
    ``shards > 1`` splits the group across that many control planes
    with the cross-shard commit.  ``verify`` is off -- CRC readback
    adds the same linear term to every arm and the window is the
    quantity under test.
    """
    arm = replace(params.DEFAULT, tree_broadcast=tree)
    sim = Simulator()
    params.configure(
        sim, arm if degree is None else replace(arm, tree_degree=degree)
    )
    programs = _programs(n_targets, seed)
    if shards > 1:
        bed = sharded_testbed(n_targets, shards, seed=seed, sim=sim)
        group = bed.sharded
    else:
        bed = make_testbed(
            n_hosts=n_targets, cores_per_host=4, hooks=("ingress",),
            with_agents=False, seed=seed, sim=sim,
        )
        group = CodeFlowGroup(bed.codeflows)
    result = sim.run_process(group.broadcast(programs, "ingress", verify=False))
    return result.bubble_window_us


def _kernel_node(sim: Simulator, cpu: CPU, iters: int, seed: int):
    """One node's kernel-stress loop: mixed-priority, quantum-sliced
    CPU work interleaved with short timers -- the event mix a 1024-node
    broadcast actually generates (grants, slice expiries, timeouts)."""
    for i in range(iters):
        cost = 1.0 + ((seed + i) % 3)
        yield from cpu.run(cost, priority=i % 2, quantum_us=0.5)
        yield sim.timeout(0.1 + (seed % 5) * 0.01)


def kernel_throughput(n_nodes: int, iters: int = 20) -> tuple[float, int]:
    """Sim-kernel stress: returns (events per wall second, events).

    Builds ``n_nodes`` two-core CPU pools and runs ``iters``
    mixed-priority quantum-sliced tasks on each -- pure kernel work
    (calendar pops, resource grants, generator resumes) with no RDX
    stack on top.
    """
    sim = Simulator()
    for node in range(n_nodes):
        cpu = CPU(sim, cores=2, name=f"n{node}.cpu")
        sim.spawn(_kernel_node(sim, cpu, iters, seed=node), name=f"n{node}")
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    events = sim._processed_events
    return events / max(elapsed, 1e-9), events


__all__ = [
    "ShardedTestbed",
    "sharded_testbed",
    "broadcast_window",
    "kernel_throughput",
]

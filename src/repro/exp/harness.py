"""Shared experiment plumbing: the standard testbed and reporting."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.agent.daemon import NodeAgent
from repro.core.codeflow import CodeFlow
from repro.core.control_plane import RdxControlPlane
from repro.core.api import bootstrap_sandbox
from repro.net.topology import Cluster, Host
from repro.obs import Telemetry, telemetry_of
from repro.params import Config, configure
from repro.sandbox.sandbox import Sandbox
from repro.sim.core import Simulator
from repro.sim.trace import TraceRecorder


@dataclass
class Testbed:
    """The paper's §6 rack: data hosts + a dedicated control server.

    Each data host carries one sandbox; agents and CodeFlows are both
    wired so experiments can drive either path on the same hardware.
    """

    sim: Simulator
    cluster: Cluster
    sandboxes: list[Sandbox]
    agents: list[NodeAgent]
    control: RdxControlPlane
    codeflows: list[CodeFlow]
    trace: TraceRecorder

    @property
    def obs(self) -> Telemetry:
        """This testbed's telemetry hub (metrics + spans)."""
        return telemetry_of(self.sim)

    @property
    def host(self) -> Host:
        return self.cluster.hosts[0]

    @property
    def sandbox(self) -> Sandbox:
        return self.sandboxes[0]

    @property
    def agent(self) -> NodeAgent:
        return self.agents[0]

    @property
    def codeflow(self) -> CodeFlow:
        return self.codeflows[0]


def make_testbed(
    n_hosts: int = 1,
    cores_per_host: int = 24,
    hooks: tuple[str, ...] = ("ingress", "egress"),
    cpki: float = 5.0,
    with_agents: bool = True,
    with_codeflows: bool = True,
    seed: int = 0,
    sim: Optional[Simulator] = None,
    config: Optional[Config] = None,
) -> Testbed:
    """Build the standard single-rack testbed.

    ``config`` is the arm this simulation runs (default: the process
    default, :data:`repro.params.DEFAULT`); an A/B is two testbeds,
    ``make_testbed(config=replace(DEFAULT, pipelined_deploy=False))``.
    ``sim`` lets a caller pre-configure the simulator before any
    component touches it -- the fuzz engine uses this to install its
    decision tape and bounded trace recorder ahead of construction.
    """
    if sim is None:
        sim = Simulator()
    if config is not None:
        configure(sim, config)
    trace = TraceRecorder()
    cluster = Cluster(
        sim, n_hosts=n_hosts, cores_per_host=cores_per_host,
        dram_bytes=64 * 2**20, cpki=cpki, seed=seed,
    )
    sandboxes = []
    agents = []
    for host in cluster.hosts:
        sandbox = Sandbox(host, hooks=hooks)
        bootstrap_sandbox(sandbox)
        sandboxes.append(sandbox)
        if with_agents:
            agents.append(NodeAgent(host, sandbox, trace=trace))
    assert cluster.control_host is not None
    control = RdxControlPlane(cluster.control_host, trace=trace)
    codeflows = []
    if with_codeflows:
        for sandbox in sandboxes:
            codeflow = sim.run_process(control.create_codeflow(sandbox))
            codeflows.append(codeflow)
    return Testbed(
        sim=sim,
        cluster=cluster,
        sandboxes=sandboxes,
        agents=agents,
        control=control,
        codeflows=codeflows,
        trace=trace,
    )


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str = "",
) -> str:
    """Render an aligned text table (what benches print)."""
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[col])), *(len(row[col]) for row in text_rows))
        if text_rows
        else len(str(headers[col]))
        for col in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    if note:
        lines.append(note)
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        if cell >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


def write_bench_json(
    bench: str,
    rows: Sequence[dict],
    directory: Optional[str] = None,
) -> str:
    """Dump machine-readable bench results to ``BENCH_<name>.json``.

    Each row is ``{bench, metric, value, unit, sim_time}``; missing
    ``bench`` keys are filled in.  The directory defaults to
    ``$RDX_BENCH_DIR`` (CI sets it per ablation arm) or the current
    working directory.  Returns the path written, so benches can print
    it next to their tables.
    """
    directory = directory or os.environ.get("RDX_BENCH_DIR") or "."
    os.makedirs(directory, exist_ok=True)
    normalized = []
    for row in rows:
        entry = {
            "bench": bench,
            "metric": "",
            "value": None,
            "unit": "",
            "sim_time": None,
        }
        entry.update(row)
        normalized.append(entry)
    path = os.path.join(directory, f"BENCH_{bench}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(normalized, handle, indent=2)
        handle.write("\n")
    return path


def median(values: Sequence[float]) -> float:
    """Median without pulling in statistics for one call."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2

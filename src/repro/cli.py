"""Command-line entry point: regenerate any paper figure or table.

Usage::

    python -m repro.cli list
    python -m repro.cli fig4a
    python -m repro.cli fig5 --quick
    python -m repro.cli all --quick
    python -m repro.cli telemetry --quick --format prom

``--quick`` shrinks sweeps for a fast smoke run; the default settings
match `benchmarks/`.  ``telemetry`` runs a representative deploy /
broadcast / audit workload and prints the resulting metrics snapshot
(``--format table|jsonl|prom``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.exp import (
    format_table,
    run_fault_campaign,
    run_fig2a,
    run_fig2b,
    run_fig2c,
    run_fig4a,
    run_fig4b,
    run_fig5,
    run_tab_broadcast,
    run_tab_mesh,
    run_tab_redis,
    run_tab_rollback,
)


def _fig2a(quick: bool) -> str:
    sizes = (1_300, 11_000) if quick else (1_300, 11_000, 26_000, 49_000, 76_000)
    result = run_fig2a(sizes=sizes, repeats=2 if quick else 3)
    return format_table(
        "Fig 2a -- agent injection overhead",
        ["insns", "inject (ms)", "verify+JIT share"],
        [
            (p.insn_size, p.mean_inject_us / 1000.0,
             f"{p.verify_jit_share * 100:.1f}%")
            for p in result.points
        ],
    )


def _fig2b(quick: bool) -> str:
    apps = (("app1", 4), ("app2", 11)) if quick else None
    kwargs = {"apps": apps} if apps else {}
    if quick:
        kwargs.update(ebpf_insns=3_000, wasm_padding=500)
    result = run_fig2b(**kwargs)
    return format_table(
        "Fig 2b -- rollout inconsistency window",
        ["app", "services", "family", "window (ms)", "violations"],
        [
            (p.app, p.n_services, p.family, p.window_us / 1000.0, p.violations)
            for p in result.points
        ],
    )


def _fig2c(quick: bool) -> str:
    duration = 400_000 if quick else 800_000
    result = run_fig2c(rates=(100, 200, 300, 400), duration_us=duration)
    return format_table(
        "Fig 2c -- completion under injection contention",
        ["offered req/s", "clean", "contended", "degradation"],
        [
            (p.offered_req_s, p.completion_no_contention,
             p.completion_with_contention, f"{p.degradation * 100:.0f}%")
            for p in result.points
        ],
    )


def _fig4a(quick: bool) -> str:
    sizes = (1_300, 11_000) if quick else (1_300, 11_000, 26_000, 49_000,
                                           76_000, 95_000)
    result = run_fig4a(sizes=sizes, repeats=2 if quick else 3)
    return format_table(
        "Fig 4a -- Agent vs RDX injection",
        ["insns", "agent (ms)", "RDX (us)", "speedup"],
        [
            (p.insn_size, p.agent_us / 1000.0, p.rdx_us, f"{p.speedup:.0f}x")
            for p in result.points
        ],
    )


def _fig4b(quick: bool) -> str:
    result = run_fig4b()
    rows = [("agent", k, v) for k, v in result.agent_phases_us.items()]
    rows += [("rdx", k, v) for k, v in result.rdx_phases_us.items()]
    return format_table(
        f"Fig 4b -- breakdown at {result.insn_size} insns",
        ["path", "phase", "us"],
        rows,
        note=f"agent verify+JIT share {result.agent_verify_jit_share * 100:.1f}%",
    )


def _fig5(quick: bool) -> str:
    levels = (5, 20, 40) if quick else (5, 10, 15, 20, 25, 30, 35, 40)
    result = run_fig5(cpki_levels=levels, trials=15 if quick else 31)
    return format_table(
        "Fig 5 -- incoherence vs CPKI",
        ["CPKI", "vanilla (us)", "RDX (us)"],
        [
            (p.cpki, p.vanilla_median_us, p.rdx_median_us)
            for p in result.points
        ],
    )


def _tab_redis(quick: bool) -> str:
    result = run_tab_redis(duration_us=150_000 if quick else 300_000)
    return format_table(
        "Redis throughput",
        ["deployment", "ops/s"],
        [("agent", result.agent_ops_s), ("RDX", result.rdx_ops_s)],
        note=f"improvement {result.improvement_pct:.1f}%",
    )


def _tab_mesh(quick: bool) -> str:
    result = run_tab_mesh(duration_us=200_000 if quick else 400_000)
    return format_table(
        "Mesh completion under filter churn",
        ["deployment", "req/s"],
        [
            ("agents", result.agent_completion_s),
            ("RDX", result.rdx_completion_s),
        ],
        note=f"improvement {result.improvement_pct:.1f}%",
    )


def _tab_broadcast(quick: bool) -> str:
    sizes = (2, 4) if quick else (2, 4, 8, 16)
    result = run_tab_broadcast(group_sizes=sizes)
    return format_table(
        "rdx_broadcast / BBU sizing",
        ["nodes", "bubble (us)", "RDX buffer", "agent buffer"],
        [
            (r.group_size, r.bubble_window_us, f"{r.bbu_buffer_requests:.0f}",
             f"{r.agent_buffer_requests:,.0f}")
            for r in result.rows
        ],
    )


def _tab_rollback(quick: bool) -> str:
    result = run_tab_rollback()
    return format_table(
        "Rollback under 95% CPU load",
        ["path", "latency (us)"],
        [
            ("agent re-inject", result.agent_rollback_us),
            ("RDX fence+flip+flush", result.rdx_rollback_us),
        ],
        note=f"speedup {result.speedup:,.0f}x",
    )


def run_telemetry_workload(quick: bool = False):
    """Drive a representative workload; returns (testbed, last AuditReport).

    Exercises every instrumented layer: cold + warm deploys (cache
    miss/hit), an ``rdx_broadcast`` fan-out (parent + per-target child
    spans), an XState deploy, and two audits -- one clean, one after
    tampering with a deployed image so findings counters move.
    """
    from repro.core.broadcast import CodeFlowGroup
    from repro.core.introspect import RemoteIntrospector
    from repro.core.xstate import XStateSpec
    from repro.ebpf.maps import MapType
    from repro.ebpf.stress import make_stress_program
    from repro.exp.harness import make_testbed

    n_hosts = 2 if quick else 4
    repeats = 2 if quick else 5
    bed = make_testbed(n_hosts=n_hosts, cores_per_host=8)

    # Cold deploy (cache miss: validate + JIT) then warm re-deploys
    # (cache hits: pure injection -- the Fig 4b fast path).
    program = make_stress_program(1_300 if quick else 5_000, seed=7)
    for _ in range(repeats):
        bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )

    # Cluster-wide transactional update: one program per target.
    group = CodeFlowGroup(bed.codeflows)
    rollout = make_stress_program(900, seed=11, name="rollout")
    bed.sim.run_process(
        group.broadcast([rollout] * len(bed.codeflows), "egress")
    )

    # Extension state (Meta-XState) deploy.
    bed.sim.run_process(
        bed.codeflow.deploy_xstate(XStateSpec("kv", MapType.HASH, 4, 8, 8))
    )

    # Remote audits: a clean pass, then one that must find tampering.
    introspector = RemoteIntrospector(bed.codeflow)
    introspector.snapshot_deployed()
    bed.sim.run_process(introspector.audit())
    record = bed.codeflow.deployed[program.name]
    raw = bed.host.memory.read(record.code_addr + 16, 1)
    bed.host.memory.write(record.code_addr + 16, bytes([raw[0] ^ 0xFF]))
    report = bed.sim.run_process(introspector.audit())

    # Reliability layer: a transient fault absorbed by the retry
    # policy (rdx.retry.*), then a torn image write that fails the
    # verify readback and aborts the broadcast (rdx.broadcast.abort).
    from repro.core.faults import FaultInjector, FaultKind
    from repro.errors import BroadcastAborted

    injector = FaultInjector(bed.codeflows[-1], seed=5)
    injector.arm(FaultKind.TRANSIENT)
    injector.attach()
    patch = make_stress_program(700, seed=13, name="rollout")
    bed.sim.run_process(
        group.broadcast([patch] * len(bed.codeflows), "egress")
    )
    injector.arm(FaultKind.TORN_WRITE)
    torn = make_stress_program(800, seed=17, name="rollout")
    try:
        bed.sim.run_process(
            group.broadcast([torn] * len(bed.codeflows), "egress")
        )
    except BroadcastAborted:
        pass  # expected: succeeded targets rolled back to `patch`
    finally:
        injector.detach()
    return bed, report


def _telemetry(quick: bool, fmt: str = "table") -> str:
    from repro.obs import to_jsonl, to_prometheus

    bed, _report = run_telemetry_workload(quick)
    registry = bed.obs.registry
    if fmt == "jsonl":
        return to_jsonl(registry).rstrip("\n")
    if fmt == "prom":
        return to_prometheus(registry).rstrip("\n")

    scalar_rows = []
    histo_rows = []
    for row in registry.snapshot():
        labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        if row["type"] == "histogram":
            histo_rows.append(
                (row["name"], labels, row["count"], row["p50"], row["p90"],
                 row["p99"], row["max"])
            )
        else:
            scalar_rows.append((row["name"], labels, row["type"], row["value"]))
    parts = [
        format_table(
            "Telemetry -- counters and gauges",
            ["name", "labels", "type", "value"],
            scalar_rows,
        ),
        "",
        format_table(
            "Telemetry -- histograms (us unless noted)",
            ["name", "labels", "count", "p50", "p90", "p99", "max"],
            histo_rows,
            note=(
                f"{bed.obs.tracer.started} spans, "
                f"{len(bed.obs.recorder)} trace events"
            ),
        ),
    ]
    return "\n".join(parts)


def _faults(
    rounds: int, seed: int, nodes: int, allow_partial: bool,
    scrape: bool = False, telemetry_out: str = "",
) -> str:
    bed = None
    if scrape or telemetry_out:
        from repro.exp.harness import make_testbed

        bed = make_testbed(n_hosts=nodes, cores_per_host=8, seed=seed)
    result = run_fault_campaign(
        n_hosts=nodes, rounds=rounds, seed=seed, allow_partial=allow_partial,
        testbed=bed, scrape=scrape or bool(telemetry_out),
    )
    if telemetry_out:
        import os

        from repro.obs import export_prometheus, to_jsonl

        os.makedirs(telemetry_out, exist_ok=True)
        with open(os.path.join(telemetry_out, "snap.prom"), "w") as fh:
            fh.write(export_prometheus(bed.obs))
        # export_prometheus refreshed the health gauges for both files.
        with open(os.path.join(telemetry_out, "snap.jsonl"), "w") as fh:
            fh.write(to_jsonl(bed.obs.registry))
    rows = [
        (
            r.index,
            r.fault,
            r.target,
            "degraded" if r.degraded else
            ("committed" if r.committed else "ABORTED"),
            r.retries,
            r.abort_us,
            "yes" if r.bubbles_clear else "NO",
        )
        for r in result.rounds
    ]
    note = (
        f"{result.committed} committed, {result.aborts} aborted, "
        f"{result.degraded} degraded | {result.faults_injected} faults "
        f"injected, {result.retries_total} transport retries, "
        f"{result.stranded} stranded-bubble rounds (must be 0)"
    )
    if scrape or telemetry_out:
        note += (
            f" | {result.scrapes} one-sided scrapes "
            f"({result.scrape_retries} seqlock retries, "
            f"{result.scrape_torn} torn)"
        )
    return format_table(
        f"Fault campaign -- {result.n_hosts} nodes, seed {result.seed}, "
        f"allow_partial={result.allow_partial}",
        ["round", "fault", "target", "outcome", "retries", "abort (us)",
         "bubbles clear"],
        rows,
        note=note,
    )


def _races(seed: int, nodes: int, rounds: int) -> tuple[str, int]:
    """Happens-before race check: fault campaign + known-bad schedules.

    Returns (report text, exit status).  Nonzero when the fault
    campaign trips a detector (a real ordering bug in the stack) or
    when a known-bad schedule fails to trip its detector (a dead
    detector).
    """
    from dataclasses import replace

    from repro.exp.harness import make_testbed
    from repro.exp.hb_schedules import format_report, run_hb_schedules
    from repro.hb import checker
    from repro.params import DEFAULT

    parts = []
    status = 0

    bed = make_testbed(
        n_hosts=nodes, cores_per_host=8, seed=seed,
        config=replace(DEFAULT, hb_check=True),
    )
    run_fault_campaign(n_hosts=nodes, rounds=rounds, seed=seed, testbed=bed)
    report = checker.consume(bed.sim)
    rows = [
        (
            0,
            report.events,
            len(report.findings),
            "yes" if report.truncated else "no",
            "clean" if report.clean else "DIRTY",
        )
    ]
    if report.findings:
        status = 1
        parts.append(checker.format_findings(report.findings))
    parts.insert(
        0,
        format_table(
            f"HB race check -- fault campaign, {nodes} nodes, "
            f"{rounds} rounds, seed {seed}",
            ["sim", "hb events", "findings", "truncated", "verdict"],
            rows,
            note="every simulation the campaign touched, checked at exit",
        ),
    )

    schedules = run_hb_schedules(seed=seed)
    parts.append("")
    parts.append(format_report(schedules))
    if not schedules.ok:
        status = 1
    return "\n".join(parts), status


def _blackbox(seed: int, nodes: int) -> str:
    """Crash the control plane mid-broadcast, then read the black box.

    Models the operator workflow after an incarnation dies: the crash
    handler snapshotted the flight recorder (recent spans, metric
    deltas, still-open spans) into the durable intent journal; this
    command replays those FLIGHT records into a post-mortem report,
    then shows the successor recovering.
    """
    import random as _random

    from repro.core.broadcast import CodeFlowGroup
    from repro.core.reconcile import Reconciler, resume_control_plane
    from repro.ebpf.stress import make_stress_program
    from repro.exp.harness import make_testbed
    from repro.obs.flight import format_blackbox

    rng = _random.Random(seed)
    bed = make_testbed(n_hosts=nodes, cores_per_host=8, seed=seed)
    group = CodeFlowGroup(bed.codeflows)

    def programs(version: int):
        return [
            make_stress_program(400, seed=version * 31 + i, name=f"bb{i}")
            for i in range(len(bed.codeflows))
        ]

    # A committed baseline, then a broadcast that dies mid-flight.
    bed.sim.run_process(group.broadcast(programs(1), "ingress"))
    proc = bed.sim.spawn(
        group.broadcast(programs(2), "ingress"), name="doomed-broadcast"
    )
    bed.sim.run(until=bed.sim.now + 20.0 + rng.uniform(0.0, 30.0))
    bed.control.crash()  # journals the FLIGHT snapshot
    proc.interrupt("control plane fail-stop")
    bed.sim.run()

    flights = [record.detail for record in bed.control.journal.flight_records()]
    report = format_blackbox(flights, epoch=bed.control.epoch)

    # The successor recovers; its repairs prove the box was read from
    # durable state, not from the dead incarnation's memory.
    plane, codeflows = bed.sim.run_process(
        resume_control_plane(
            bed.cluster.control_host, bed.control.journal, bed.sandboxes,
            trace=bed.trace,
        )
    )
    bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
    aborted = sum(1 for r in plane.journal.records if r.rec == "ABORT")
    return (
        report
        + f"\nrecovery: successor epoch {plane.epoch}, "
        f"{aborted} dangling txn(s) aborted, cluster reconciled"
    )


def _fuzz(
    scenario: str,
    iterations: int,
    seed: int,
    corpus_dir: str,
    replay: bool,
    max_events: int,
) -> tuple[str, int]:
    """The ``fuzz`` subcommand: explore schedules or replay the corpus.

    Fuzz mode exits nonzero when a *guarded* scenario produces a
    finding or invariant break (a live ordering bug).  Known-bad
    scenarios are *supposed* to fail; their minimized tapes are saved
    to the corpus as regression anchors.  Replay mode reruns every
    corpus schedule and exits nonzero unless each one re-trips its
    recorded failure class -- the detector-liveness gate.
    """
    from repro.fuzz import corpus as fuzz_corpus
    from repro.fuzz.engine import fuzz as run_fuzz
    from repro.fuzz.scenarios import GUARDED, KNOWN_BAD, SCENARIOS, get

    lines: list[str] = []
    status = 0

    if replay:
        entries = fuzz_corpus.load_dir(corpus_dir)
        if not entries:
            return f"no schedule files under {corpus_dir}", 1
        for entry in entries:
            result, ok = fuzz_corpus.replay(entry, max_events=max_events)
            mark = "ok" if ok else "DETECTOR SILENT"
            lines.append(
                f"[{mark}] {entry.filename}: verdict={result.verdict} "
                f"kinds={','.join(result.kinds) or '-'} "
                f"({len(entry.plan.decisions)} decision(s))"
            )
            if not ok:
                status = 1
        lines.append(
            f"{len(entries)} schedule(s) replayed"
            + ("" if status == 0 else " -- LIVENESS GATE FAILED")
        )
        return "\n".join(lines), status

    if scenario == "all":
        names = list(SCENARIOS)
    elif scenario == "guarded":
        names = list(GUARDED)
    elif scenario == "known-bad":
        names = list(KNOWN_BAD)
    else:
        names = [scenario]

    for name in names:
        target = get(name)
        report = run_fuzz(
            target, iterations=iterations, seed=seed, max_events=max_events
        )
        verdicts = " ".join(
            f"{k}={v}" for k, v in sorted(report.verdicts.items())
        )
        lines.append(f"{name}: {report.iterations} iteration(s), {verdicts}")
        for failure in report.failures:
            entry = fuzz_corpus.CorpusEntry.from_failure(
                failure, workload_seed=0
            )
            path = fuzz_corpus.save(entry, corpus_dir)
            lines.append(
                f"  {failure.kind}: found at iteration {failure.iteration}, "
                f"minimized {failure.original_decisions} -> "
                f"{failure.minimized_decisions} decision(s) "
                f"in {failure.minimize_runs} run(s) -> {path}"
            )
        if not target.known_bad and report.failures:
            lines.append(f"  ORDERING BUG: guarded scenario {name} failed")
            status = 1
        if target.known_bad and target.expect not in report.kinds_found:
            lines.append(
                f"  DETECTOR MISS: {name} never tripped {target.expect} "
                f"in {iterations} iteration(s)"
            )
            status = 1
    return "\n".join(lines), status


def _serve(quick: bool, tenants: int, duration_us: float, seed: int) -> str:
    """The ``serve`` subcommand: one open-loop multi-tenant run."""
    from repro.exp.serve_workload import ServeWorkloadSpec, run_serve_workload

    spec = ServeWorkloadSpec(
        n_tenants=60 if quick else tenants,
        n_targets=2 if quick else 8,
        duration_us=200_000.0 if quick else duration_us,
        n_hot_programs=4 if quick else 12,
        seed=seed,
    )
    result, service = run_serve_workload(spec)
    shed_total = sum(result.shed.values())
    warm_ratio = (
        result.cold_service_p50_us / result.warm_service_p50_us
        if result.warm_service_p50_us > 0
        else 0.0
    )
    rows = [
        ("deploys/sec (sustained)", result.deploys_per_sec),
        ("latency p50 (us)", result.latency_p50_us),
        ("latency p95 (us)", result.latency_p95_us),
        ("latency p99 (us)", result.latency_p99_us),
        ("warm service p50 (us)", result.warm_service_p50_us),
        ("cold service p50 (us)", result.cold_service_p50_us),
        ("warm/cold speedup", f"{warm_ratio:.1f}x"),
        ("offered", result.offered),
        ("completed", result.completed),
        ("failed", result.failed),
        ("shed (total)", shed_total),
    ]
    rows += [
        (f"shed: {reason}", count)
        for reason, count in sorted(result.shed.items())
    ]
    rows += [
        (f"p99 {name} (us)", p99)
        for name, p99 in sorted(result.per_class_p99_us.items())
    ]
    return format_table(
        f"Multi-tenant serving -- {spec.n_tenants} tenants, "
        f"{spec.n_targets} targets, {spec.duration_us / 1e6:.1f}s open loop",
        ["metric", "value"],
        rows,
        note=(
            f"warm pool: {result.warm_hits} hits, {result.warm_misses} "
            f"misses, {result.warm_evictions} evictions; "
            f"unaccounted deploys: {result.unaccounted} (must be 0)"
        ),
    )


def _recover(seed: int, nodes: int) -> str:
    from repro.exp.recovery_campaign import (
        format_recovery_report,
        run_recovery_campaign,
    )

    result = run_recovery_campaign(n_hosts=nodes, seed=seed)
    return format_recovery_report(result)


EXPERIMENTS: dict[str, Callable[[bool], str]] = {
    "fig2a": _fig2a,
    "fig2b": _fig2b,
    "fig2c": _fig2c,
    "fig4a": _fig4a,
    "fig4b": _fig4b,
    "fig5": _fig5,
    "redis": _tab_redis,
    "mesh": _tab_mesh,
    "broadcast": _tab_broadcast,
    "rollback": _tab_rollback,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate RDX paper figures/tables."
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS)
        + ["all", "list", "telemetry", "faults", "recover", "races",
           "blackbox", "fuzz", "serve"],
        help="which figure/table to regenerate "
        "(or 'telemetry' / 'faults' / 'recover' / 'races' / 'blackbox' "
        "/ 'fuzz' / 'serve')",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps, faster run"
    )
    parser.add_argument(
        "--format",
        choices=["table", "jsonl", "prom"],
        default="table",
        help="output format for the telemetry snapshot",
    )
    parser.add_argument(
        "--rounds", type=int, default=8,
        help="faults: number of faulted broadcast rounds",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="faults/recover: RNG seed for the fault schedule",
    )
    parser.add_argument(
        "--nodes", type=int, default=3,
        help="faults/recover: number of target hosts",
    )
    parser.add_argument(
        "--allow-partial", action="store_true",
        help="faults: quorum mode (degrade instead of abort)",
    )
    parser.add_argument(
        "--scrape", action="store_true",
        help="faults: run one-sided telemetry scrapes between rounds",
    )
    parser.add_argument(
        "--telemetry-out", default="", metavar="DIR",
        help="faults: write snap.prom / snap.jsonl metric snapshots "
        "to DIR (implies --scrape)",
    )
    parser.add_argument(
        "--iterations", type=int, default=25,
        help="fuzz: decision tapes to try per scenario",
    )
    parser.add_argument(
        "--scenario", default="all", metavar="NAME",
        help="fuzz: scenario name, or 'all' / 'guarded' / 'known-bad'",
    )
    parser.add_argument(
        "--corpus-dir", default="corpus/schedules", metavar="DIR",
        help="fuzz: where minimized schedule files live",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="fuzz: replay the corpus instead of fuzzing (detector "
        "liveness gate)",
    )
    parser.add_argument(
        "--max-events", type=int, default=50_000,
        help="fuzz: per-iteration trace bound (overrun = inconclusive)",
    )
    parser.add_argument(
        "--tenants", type=int, default=1000,
        help="serve: tenant population for the open-loop mix",
    )
    parser.add_argument(
        "--duration", type=float, default=2_000_000.0, metavar="US",
        help="serve: open-loop arrival window, simulated microseconds",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        try:
            for name in sorted(EXPERIMENTS) + [
                "blackbox", "faults", "fuzz", "races", "recover", "serve",
                "telemetry"
            ]:
                print(name)
        except BrokenPipeError:  # e.g. `repro list | head`
            pass
        return 0

    if args.experiment == "telemetry":
        print(_telemetry(args.quick, args.format))
        return 0

    if args.experiment == "recover":
        print(_recover(seed=args.seed, nodes=args.nodes))
        return 0

    if args.experiment == "serve":
        print(
            _serve(
                args.quick,
                tenants=args.tenants,
                duration_us=args.duration,
                seed=args.seed or 7,
            )
        )
        return 0

    if args.experiment == "blackbox":
        print(_blackbox(seed=args.seed, nodes=args.nodes))
        return 0

    if args.experiment == "races":
        text, status = _races(
            seed=args.seed,
            nodes=args.nodes,
            rounds=4 if args.quick else args.rounds,
        )
        print(text)
        return status

    if args.experiment == "fuzz":
        text, status = _fuzz(
            scenario=args.scenario,
            iterations=5 if args.quick else args.iterations,
            seed=args.seed,
            corpus_dir=args.corpus_dir,
            replay=args.replay,
            max_events=args.max_events,
        )
        print(text)
        return status

    if args.experiment == "faults":
        print(
            _faults(
                rounds=4 if args.quick else args.rounds,
                seed=args.seed,
                nodes=args.nodes,
                allow_partial=args.allow_partial,
                scrape=args.scrape,
                telemetry_out=args.telemetry_out,
            )
        )
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        started = time.time()
        print(EXPERIMENTS[name](args.quick))
        print(f"[{name} regenerated in {time.time() - started:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

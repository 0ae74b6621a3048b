"""deploy_churn: closed loop, one client, one control plane -> 4 targets.

Why it exists: it puts every kind of deploy side by side on one
testbed, so a gain for one that costs another shows.  Per seeded round
on a seeded target:

* ``cold``    -- a never-seen program: validate + JIT + link + full image;
* ``warm``    -- the same program again: registry and link-cache hit,
  full image (the baseline on the target is last round's program);
* ``patch``   -- ``make_stress_variant`` one-instruction edit:
  recompile, but only the dirty span moves (``RDX_DELTA_DEPLOY=1``);
* ``revisit`` -- a program first deployed some rounds ago, the distance
  seeded to straddle ``RDX_REGISTRY_CAP`` (128 entries = 64 rounds).

``ebpf`` does most of the CPU on cold/patch, ``core.codeflow`` /
``core.sync`` / ``rdma`` / ``mem`` on warm.  Program sizes are the
nominal {64, 300, 818, 1300} plus a few seeded instructions; the gating
percentiles are taken on the 818 class (the paper's 8 KB hotpatch).

Op = one deploy through first exec: ``prepare_for`` -> ``link_code`` ->
``deploy_prog`` -> the target sandbox's ``run_hook`` returning the new
version's ``r0`` (oracle: the same program run through
``repro.ebpf.interpreter`` locally).  Sim latency = ``sim.now`` delta
over the three calls + the ``cost_us`` ``run_hook`` returns.

``retain_history=True``: with ``False`` a freed extent is reused by a
full-image deploy whose stale code lines are never flushed, and first
exec crashes (see README, "Known failure").  The benchmark may not
carry failing ops, so the extents stay resident and a fresh testbed per
segment bounds them.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict

from repro.ebpf.stress import make_stress_variant
from repro.errors import ReproError, SandboxCrash
from repro.exp.harness import make_testbed
from repro.obs import telemetry_of

from harness import (
    Config,
    Digest,
    FailureLedger,
    Recorder,
    Segment,
    Stopwatch,
    measure,
    percentile,
    span_totals,
    summarize,
)
from stack import (
    CTX,
    oracle_r0,
    patchable_program,
    per_op_transport,
    series_total,
    transport_counters,
    wrs_per_doorbell_p50,
)

HOOK = "ingress"
N_TARGETS = 4
KINDS = ("cold", "warm", "patch", "revisit")
#: The size class the gating p50s are read on.
REFERENCE_SIZE = 818
#: (nominal size, rounds per 24): small programs are most of the churn,
#: the reference class keeps >= 10 samples per kind per segment.
SIZE_MIX = ((64, 9), (300, 6), (818, 6), (1300, 3))
DELTA_FALLBACK_REASONS = (
    "first-deploy", "no-baseline", "layout-changed", "size-changed",
    "past-break-even", "no-savings",
)


def make_inputs(cfg: Config) -> dict:
    """All programs, oracles and the op schedule, from the seed."""
    rng = random.Random(cfg.seed)
    rounds = 24 if cfg.smoke else 96
    classes = [size for size, weight in SIZE_MIX for _ in range(weight)]
    schedule_sizes = []
    while len(schedule_sizes) < rounds:
        block = classes[:]
        rng.shuffle(block)
        schedule_sizes.extend(block)
    ops = []  # (kind, nominal size, program, expected r0, target)
    bases = []
    for rnd, nominal in enumerate(schedule_sizes[:rounds]):
        base = patchable_program(rng, nominal, 8, f"churn{rnd}")
        patched = make_stress_variant(base, imm=1 + rng.randrange(1 << 20))
        base_r0, patched_r0 = oracle_r0(base), oracle_r0(patched)
        bases.append((nominal, base, base_r0))
        target = rng.randrange(N_TARGETS)
        ops.append(("cold", nominal, base, base_r0, target))
        ops.append(("warm", nominal, base, base_r0, target))
        ops.append(("patch", nominal, patched, patched_r0, target))
        if rnd >= 8 and rnd % 3 == 2:
            # Distance back is uniform over everything older than the
            # last few rounds, so late revisits fall either side of the
            # 64 rounds the compile registry holds.
            old_nominal, old, old_r0 = bases[rng.randrange(rnd - 7)]
            ops.append(
                ("revisit", old_nominal, old, old_r0, rng.randrange(N_TARGETS))
            )
    return {"ops": ops, "seed": cfg.seed}


def _recover(bed, flow) -> None:
    """Clear a crashed or wedged target and re-fence it, so the churn
    carries on; the failed op stays failed."""
    flow.sandbox.warm_reboot()
    flow.reset_after_reboot()
    bed.sim.run_process(flow.stamp_epoch(bed.control.epoch))


def _counters(bed) -> dict:
    """Public counters read at the segment's boundaries."""
    sim, control = bed.sim, bed.control
    caches = [host.cache.stats for host in bed.cluster.hosts]
    return {
        **transport_counters(sim, bed.cluster.fabric),
        "compiles": control.compiles_run,
        "registry_hits": control.cache_hits,
        "registry_misses": series_total(sim, "rdx.cache.miss"),
        "prepare_coalesced": control.prepare_coalesced,
        "link_hits": control.link_cache_hits,
        "link_misses": control.link_cache_misses,
        "mem.stale_hits": sum(stats.stale_hits for stats in caches),
        "mem.flushes": sum(stats.flushes for stats in caches),
        "delta_fallbacks": {
            dict(series.labels).get("reason", ""): series.value
            for series in telemetry_of(sim).registry.series("rdx.delta.fallback")
        },
        "wrs_per_doorbell_p50": wrs_per_doorbell_p50(sim),
    }


def one_segment(inputs: dict, rec: Recorder) -> Segment:
    with Stopwatch() as setup:
        bed = make_testbed(
            n_hosts=N_TARGETS, cores_per_host=4, hooks=(HOOK,),
            with_agents=False, seed=inputs["seed"],
        )
    sim, control = bed.sim, bed.control
    rec.bind(sim)
    ledger = FailureLedger()
    digest = Digest()
    rows = []  # one dict per op that reached first exec correctly
    slice_cpu_s = []  # CPU of each op, bookkeeping below included

    with rec.timed() as watch:
        mark = time.process_time()
        for index, (kind, nominal, program, expected, target) in enumerate(inputs["ops"]):
            now = time.process_time()
            if index:
                slice_cpu_s.append(now - mark)
            mark = now
            flow = bed.codeflows[target]
            ledger.attempt()
            start = sim.now
            compiles_before = control.compiles_run
            try:
                with rec.span("op", index) as op:
                    with rec.span("prepare_for", index, op):
                        entry = sim.run_process(control.prepare_for(flow, program))
                    prepared = sim.now
                    with rec.span("link_code", index, op):
                        linked = sim.run_process(flow.link_code(entry.binary))
                    linked_at = sim.now
                    with rec.span("deploy_prog", index, op):
                        report = sim.run_process(
                            flow.deploy_prog(program, linked, HOOK, retain_history=True)
                        )
                    deployed = sim.now
                    with rec.span("run_hook", index, op) as hook:
                        result, cost_us = flow.sandbox.run_hook(HOOK, CTX)
                        hook.add_sim(cost_us)
                    op.add_sim(cost_us)
            except SandboxCrash:
                ledger.fail("crash-at-first-exec")
                digest.add(index, kind, "crash")
                _recover(bed, flow)
                continue
            except ReproError as err:
                ledger.fail(type(err).__name__)
                digest.add(index, kind, type(err).__name__)
                _recover(bed, flow)
                continue
            if result is None or result.r0 != expected:
                ledger.fail("wrong-r0")
                digest.add(index, kind, "wrong-r0")
                continue
            latency = deployed - start + cost_us
            digest.add(index, kind, report.mode, report.bytes_moved, latency)
            phases = report.phases()
            rows.append({
                "kind": kind, "size": nominal, "latency": latency,
                "prepare": prepared - start, "link": linked_at - prepared,
                "deploy": deployed - linked_at, "exec": cost_us,
                "dispatch": phases["dispatch"], "write": phases["write"],
                "commit": phases["commit"], "cc": phases["cc"],
                "bytes": report.bytes_moved, "delta": report.mode == "delta",
                "compiled_insns": (
                    len(program.insns) if control.compiles_run != compiles_before else 0
                ),
            })
        slice_cpu_s.append(time.process_time() - mark)
    sim_values = {"elapsed_us": sim.now}
    for kind in KINDS:
        ref = [r["latency"] for r in rows if r["kind"] == kind and r["size"] == REFERENCE_SIZE]
        if ref:
            sim_values[f"{kind}_p50_us"] = percentile(ref, 50.0)
    return Segment(
        ops=ledger.attempted, cpu_s=watch.cpu_s, wall_s=watch.wall_s,
        setup_s=setup.cpu_s, slice_cpu_s=slice_cpu_s, sim=sim_values,
        extra={
            "rows": rows, "ledger": ledger, "digest": digest.hexdigest(),
            "counters": _counters(bed),
            "crashes": sum(1 for sandbox in bed.sandboxes if sandbox.crashed),
        },
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run(cfg: Config) -> dict:
    with Stopwatch() as gen:
        inputs = make_inputs(cfg)
    measured = measure(cfg, lambda rec: one_segment(inputs, rec))
    first = measured.first
    rows = first.extra["rows"]
    ledger = first.extra["ledger"]
    ops = max(1, ledger.attempted)

    by_kind = defaultdict(list)
    for row in rows:
        by_kind[row["kind"]].append(row)
    ok = len(rows)
    metrics = {
        "ops_per_cpu_s": measured.untraced.best_rate,
        "deploy_cold_p50_us": first.sim.get("cold_p50_us", 0.0),
        "deploy_warm_p50_us": first.sim.get("warm_p50_us", 0.0),
        "deploy_patch_p50_us": first.sim.get("patch_p50_us", 0.0),
        "deploy_goodput_per_sim_s": ok / (first.sim["elapsed_us"] / 1e6),
        "core.control_plane.prepare_sim_us": _mean(r["prepare"] for r in rows),
        "core.codeflow.dispatch_sim_us": _mean(r["dispatch"] for r in rows),
        "core.codeflow.link_sim_us": _mean(r["link"] for r in rows),
        "core.codeflow.write_sim_us": _mean(r["write"] for r in rows),
        "core.codeflow.commit_sim_us": _mean(r["commit"] for r in rows),
        "core.codeflow.cc_sim_us": _mean(r["cc"] for r in rows),
        # Inside deploy_prog but in no DeployReport phase (the fence read).
        "core.codeflow.unattributed_sim_us": _mean(
            r["deploy"] - r["dispatch"] - r["write"] - r["commit"] - r["cc"]
            for r in rows
        ),
        "core.codeflow.delta_share": _mean(1.0 if r["delta"] else 0.0 for r in rows),
        "sandbox.first_exec.sim_us": _mean(r["exec"] for r in rows),
        "sandbox.crashes": float(ledger.failed_by_reason.get("crash-at-first-exec", 0)),
    }
    for kind in KINDS:
        metrics[f"core.codeflow.bytes_moved_per_op_{kind}"] = _mean(
            r["bytes"] for r in by_kind[kind]
        )

    timings = {}
    for kind in KINDS:
        for size, _weight in SIZE_MIX:
            values = [r["latency"] for r in by_kind[kind] if r["size"] == size]
            if values:
                timings[f"deploy_{kind}_{size}_us"] = summarize(values)

    if measured.traced is not None:
        counters = measured.traced.extra["counters"]
        spans = span_totals(measured.recorder.spans)
        traced_cpu = measured.traced.cpu_s
        lookups = counters["registry_hits"] + counters["registry_misses"]
        links = counters["link_hits"] + counters["link_misses"]
        prepare_cpu = spans["prepare_for"]["cpu_s"]
        metrics.update(per_op_transport(counters, ops))
        metrics.update({
            "ebpf.prepare_cpu_s_per_op": prepare_cpu / ops,
            "ebpf.insns_verified_per_cpu_s": (
                sum(r["compiled_insns"] for r in measured.traced.extra["rows"]) / prepare_cpu
                if prepare_cpu else 0.0
            ),
            "core.control_plane.registry_hit_ratio": (
                counters["registry_hits"] / lookups if lookups else 0.0
            ),
            "core.control_plane.link_cache_hit_ratio": (
                counters["link_hits"] / links if links else 0.0
            ),
            "core.control_plane.compiles_per_op": counters["compiles"] / ops,
            "core.control_plane.prepare_coalesced": float(counters["prepare_coalesced"]),
            "core.codeflow.delta_fallbacks": float(sum(counters["delta_fallbacks"].values())),
            "rdma.wrs_per_doorbell_p50": counters["wrs_per_doorbell_p50"],
            "mem.cache_stale_hits": float(counters["mem.stale_hits"]),
            "mem.cache_flushes": float(counters["mem.flushes"]),
            "sandbox.first_exec.cpu_s_per_op": spans["run_hook"]["cpu_s"] / ops,
            "sandbox.first_exec.cpu_share": (
                spans["run_hook"]["cpu_s"] / traced_cpu if traced_cpu else 0.0
            ),
        })
        for reason in DELTA_FALLBACK_REASONS:
            metrics[f"core.codeflow.delta_fallbacks.{reason}"] = float(
                counters["delta_fallbacks"].get(reason, 0)
            )

    return {
        "measured": measured,
        "ledger": ledger,
        "digest": first.extra["digest"],
        "metrics": metrics,
        "timings": timings,
        "input_setup_s": gen.cpu_s,
    }

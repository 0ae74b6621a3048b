"""The ledger's metric catalogue: every name, its clock, unit, direction
and regression bound, and which workload reports it.

This file imports nothing from ``repro`` -- the runner reads it before
any workload subprocess (and so any ``RDX_*`` variable) exists.

Two sets of names:

* the **ledger names** (``deploy_cold_p50_us``, ``bubble_window_tree_us``
  ...) are what the tables, ``baseline.json`` and ``--compare`` use;
* the **contract names** in ``BENCHMARK.json`` must mean something on
  every workload and may never read 0, so each workload's three arms
  share the slots ``arm1_sim_us`` .. ``arm3_sim_us`` and
  ``failed_share`` is carried as its complement ``ok_share``.
  :data:`CONTRACT_SLOTS` is the whole mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

SIM, CPU, HOST, COUNT = "sim", "cpu", "host", "count"
LOWER, HIGHER = "lower", "higher"

#: Same-seed tolerance of a sim-clock value against its base.
SIM_BOUND = 1e-6
#: Bound of a CPU-clock value (best of k) against its base.
CPU_BOUND = 0.10
#: setup_s is the best of only three samples of import + input
#: generation (they cannot be cut into short segments), so it wanders
#: with the host more than a best-of-k of short segments does.
SETUP_BOUND = 0.25

KERNEL, CHURN, RACK, SERVE = (
    "kernel_stress", "deploy_churn", "broadcast_rack", "serve_ladder",
)
ALL = (KERNEL, CHURN, RACK, SERVE)
FULL_STACK = (CHURN, RACK, SERVE)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: part name -> RDX_* variables set on that part's subprocess
    #: before it imports ``repro`` (every other RDX_* is scrubbed).
    parts: dict


WORKLOADS = {
    KERNEL: Workload(
        KERNEL,
        "pure sim kernel on 1024 pools: the only workload where sim is ~all "
        "the CPU, so a kernel speed-up must show here and nowhere else",
        {"all": {}},
    ),
    CHURN: Workload(
        CHURN,
        "closed loop of cold, warm, patch and revisit deploys to 4 targets: "
        "compile-bound and wire-bound ops side by side, caches sized by revisit",
        {"all": {"RDX_DELTA_DEPLOY": "1"}},
    ),
    RACK: Workload(
        RACK,
        "one version per fleet broadcast, as tree N=256, flat N=64 and "
        "sharded K=4: the same fan-out code three ways, little compile work",
        {
            "tree": {"RDX_TREE_BROADCAST": "1"},
            "flat": {"RDX_TREE_BROADCAST": "0"},
            "sharded": {"RDX_TREE_BROADCAST": "1"},
        },
    ),
    SERVE: Workload(
        SERVE,
        "open loop through DeployService at 1x, 8x and 16x the stock rate: "
        "the only workload with queueing, shedding and priority isolation",
        {"all": {}},
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str
    better: str
    workloads: tuple
    doc: str

    @property
    def bound(self) -> float:
        if self.clock in (SIM, COUNT):
            return SIM_BOUND
        return SETUP_BOUND if self.name == "setup_s" else CPU_BOUND


def _m(name, unit, clock, better, workloads, doc) -> Metric:
    return Metric(name, unit, clock, better, tuple(workloads), doc)


# -- end to end (ledger names) ----------------------------------------------------

END_TO_END = (
    _m("setup_s", "s", CPU, LOWER, ALL,
       "import + input generation (best of three spaced samples) + best "
       "segment set-up (testbed, prewarm)"),
    _m("ops_per_cpu_s", "1/s", CPU, HIGHER, ALL,
       "ops counted by the benchmark per CPU-second, best of k segments"),
    _m("failed_share", "share", COUNT, LOWER, ALL,
       "(crashed at first exec + wrong r0 + failed + shed + aborted legs) / attempted"),
    _m("peak_rss_mb", "MB", HOST, LOWER, ALL,
       "ru_maxrss of the workload subprocess (largest part)"),
    _m("deploy_cold_p50_us", "us", SIM, LOWER, (CHURN,),
       "never-seen 818-class program through first exec"),
    _m("deploy_warm_p50_us", "us", SIM, LOWER, (CHURN,),
       "same 818-class program again: caches hit, full image"),
    _m("deploy_patch_p50_us", "us", SIM, LOWER, (CHURN,),
       "one-instruction edit of an 818-class program: recompile, delta write"),
    _m("bubble_window_tree_us", "us", SIM, LOWER, (RACK,),
       "bubble window, tree fan-out, N=256"),
    _m("bubble_window_flat_us", "us", SIM, LOWER, (RACK,),
       "bubble window, flat fan-out, N=64"),
    _m("bubble_window_sharded_us", "us", SIM, LOWER, (RACK,),
       "bubble window, K=4 shards, N=256"),
    _m("broadcast_total_tree_us", "us", SIM, LOWER, (RACK,),
       "fence to last bubble lowered, tree N=256"),
    _m("serve_p50_us_r1", "us", SIM, LOWER, (SERVE,),
       "ticket latency from scheduled arrival, all classes, 1x rate"),
    _m("serve_cold_p50_us_r1", "us", SIM, LOWER, (SERVE,),
       "latency of never-seen-program tickets, 1x rate (the cold path, unloaded)"),
    _m("serve_p99_us_r8", "us", SIM, LOWER, (SERVE,),
       "ticket latency p99, all classes, 8x rate (the knee)"),
    _m("serve_hotpatch_p99_us_r8", "us", SIM, LOWER, (SERVE,),
       "hotpatch-class latency p99 at the knee"),
    _m("serve_hotpatch_p99_us_r16", "us", SIM, LOWER, (SERVE,),
       "hotpatch-class latency p99 under 16x overload"),
    _m("serve_goodput_r8", "1/s", SIM, HIGHER, (SERVE,),
       "tickets completed within 1000 us, per sim-second, 8x rate"),
    _m("serve_goodput_r16", "1/s", SIM, HIGHER, (SERVE,),
       "tickets completed within 1000 us, per sim-second, 16x rate"),
    _m("serve_max_rate_in_slo", "1/s", SIM, HIGHER, (SERVE,),
       "highest offered rate meeting the SLO with no backlog at close"),
    # The three-arm view of the workloads that have no named metrics of
    # their own in the issue, so every contract slot has a ledger name.
    _m("kernel_mixed_p50_us", "us", SIM, LOWER, (KERNEL,),
       "sim time per node iteration, mixed phase"),
    _m("kernel_timer_p50_us", "us", SIM, LOWER, (KERNEL,),
       "sim time per node iteration, timer-only phase"),
    _m("kernel_grant_p50_us", "us", SIM, LOWER, (KERNEL,),
       "sim time per node iteration, contended grant phase"),
    _m("kernel_goodput_per_sim_s", "1/s", SIM, HIGHER, (KERNEL,),
       "mixed-phase iterations per sim-second"),
    _m("deploy_goodput_per_sim_s", "1/s", SIM, HIGHER, (CHURN,),
       "deploys that reached a correct first exec per sim-second"),
    _m("broadcast_goodput_tree_per_sim_s", "1/s", SIM, HIGHER, (RACK,),
       "legs per sim-second of broadcast_total_tree_us"),
)

#: contract name -> (unit, better, bound, {workload: ledger name}).
#: The bound is the share of the parent's median a later change may
#: lose *across seeds*; the ledger's own ``--compare`` holds sim-clock
#: values to SIM_BOUND at equal seed.
CONTRACT_SLOTS = {
    "setup_s": ("s", LOWER, 0.25, {w: "setup_s" for w in ALL}),
    "ops_per_cpu_s": ("1/s", HIGHER, 0.20, {w: "ops_per_cpu_s" for w in ALL}),
    "peak_rss_mb": ("MB", LOWER, 0.10, {w: "peak_rss_mb" for w in ALL}),
    "ok_share": ("share", HIGHER, 0.03, {w: "failed_share" for w in ALL}),
    "arm1_sim_us": ("us", LOWER, 0.05, {
        KERNEL: "kernel_mixed_p50_us", CHURN: "deploy_cold_p50_us",
        RACK: "bubble_window_tree_us", SERVE: "serve_p50_us_r1",
    }),
    "arm2_sim_us": ("us", LOWER, 0.05, {
        KERNEL: "kernel_timer_p50_us", CHURN: "deploy_warm_p50_us",
        RACK: "bubble_window_flat_us", SERVE: "serve_cold_p50_us_r1",
    }),
    "arm3_sim_us": ("us", LOWER, 0.20, {
        KERNEL: "kernel_grant_p50_us", CHURN: "deploy_patch_p50_us",
        RACK: "bubble_window_sharded_us", SERVE: "serve_hotpatch_p99_us_r16",
    }),
    "goodput_per_sim_s": ("1/s", HIGHER, 0.10, {
        KERNEL: "kernel_goodput_per_sim_s", CHURN: "deploy_goodput_per_sim_s",
        RACK: "broadcast_goodput_tree_per_sim_s", SERVE: "serve_goodput_r8",
    }),
}


def contract_value(slot: str, workload: str, metrics: dict) -> float:
    """The value a contract slot carries for ``workload``."""
    ledger_name = CONTRACT_SLOTS[slot][3][workload]
    value = metrics[ledger_name]
    return 1.0 - value if slot == "ok_share" else value


# -- per layer ------------------------------------------------------------------------

#: Packages the cProfile roll-up reports (``<pkg>.cpu_share`` / ``.pycalls``).
PACKAGES = (
    "sim", "ebpf", "core", "rdma", "net", "mem", "sandbox", "serve", "obs",
    "bench", "other",
)

PER_LAYER = (
    # sim -> ops_per_cpu_s on kernel_stress; <= 5 % of CPU elsewhere.
    _m("sim.events_per_op", "count", COUNT, LOWER, ALL, "sim.processed_events / ops"),
    _m("sim.timer_ops_per_cpu_s", "1/s", CPU, HIGHER, (KERNEL,), "timer-only phase"),
    _m("sim.grant_ops_per_cpu_s", "1/s", CPU, HIGHER, (KERNEL,), "contended grant phase"),
    # ebpf -> ops_per_cpu_s on deploy_churn and serve_ladder; 0 on kernel_stress.
    _m("ebpf.prepare_cpu_s_per_op", "s", CPU, LOWER, (CHURN,),
       "CPU around control.prepare_for, per op"),
    _m("ebpf.insns_verified_per_cpu_s", "1/s", CPU, HIGHER, (CHURN,),
       "instructions validated per CPU-second of prepare_for"),
    _m("ebpf.tag_cpu_share", "share", CPU, LOWER, FULL_STACK,
       "cumulative BpfProgram.tag / timed CPU"),
    _m("ebpf.verify_jit_cpu_share", "share", CPU, LOWER, FULL_STACK,
       "cumulative Verifier.run + jit_compile / timed CPU"),
    # core.control_plane -> deploy_cold/patch_p50_us, serve_p99_us_r8.
    _m("core.control_plane.prepare_sim_us", "us", SIM, LOWER, (CHURN,),
       "mean sim time inside prepare_for"),
    _m("core.control_plane.registry_hit_ratio", "share", COUNT, HIGHER, (CHURN,),
       "compile-registry hits / lookups"),
    _m("core.control_plane.link_cache_hit_ratio", "share", COUNT, HIGHER, (CHURN,),
       "linked-image cache hits / lookups"),
    _m("core.control_plane.compiles_per_op", "count", COUNT, LOWER, (CHURN, SERVE),
       "control.compiles_run / ops"),
    _m("core.control_plane.prepare_coalesced", "count", COUNT, HIGHER, (CHURN, SERVE),
       "prepares that joined an in-flight compile"),
    # core.codeflow -> deploy_warm_p50_us, serve_p50_us_r1, bubble windows.
    _m("core.codeflow.dispatch_sim_us", "us", SIM, LOWER, (CHURN,), "DeployReport phase, mean"),
    _m("core.codeflow.link_sim_us", "us", SIM, LOWER, (CHURN,), "sim time inside link_code, mean"),
    _m("core.codeflow.write_sim_us", "us", SIM, LOWER, (CHURN,), "DeployReport phase, mean"),
    _m("core.codeflow.commit_sim_us", "us", SIM, LOWER, (CHURN,), "DeployReport phase, mean"),
    _m("core.codeflow.cc_sim_us", "us", SIM, LOWER, (CHURN,), "DeployReport phase, mean"),
    _m("core.codeflow.unattributed_sim_us", "us", SIM, LOWER, (CHURN,),
       "inside deploy_prog but in no phase (the fence read)"),
    _m("core.codeflow.bytes_moved_per_op_cold", "B", COUNT, LOWER, (CHURN,), "mean"),
    _m("core.codeflow.bytes_moved_per_op_warm", "B", COUNT, LOWER, (CHURN,), "mean"),
    _m("core.codeflow.bytes_moved_per_op_patch", "B", COUNT, LOWER, (CHURN,),
       "must stay at the delta size while deploy_patch_p50_us holds"),
    _m("core.codeflow.bytes_moved_per_op_revisit", "B", COUNT, LOWER, (CHURN,), "mean"),
    _m("core.codeflow.delta_share", "share", COUNT, HIGHER, (CHURN,), "ops shipped as a delta"),
    _m("core.codeflow.delta_fallbacks", "count", COUNT, LOWER, (CHURN,),
       "rdx.delta.fallback, all reasons"),
    # sync / rdma / net -> deploy_warm_p50_us and the bubble windows.
    _m("core.sync.retry_attempts", "count", COUNT, LOWER, (CHURN, RACK), "rdx.retry.attempts"),
    _m("rdma.wrs_per_op", "count", COUNT, LOWER, FULL_STACK, "rdma.verbs / ops"),
    _m("rdma.bytes_dma_per_op", "B", COUNT, LOWER, (CHURN, RACK), "rdma.bytes_dma / ops"),
    _m("rdma.wrs_per_doorbell_p50", "count", COUNT, HIGHER, (CHURN, RACK), "chain length"),
    _m("net.messages_per_op", "count", COUNT, LOWER, (CHURN, RACK), "fabric.messages_sent / ops"),
    _m("net.bytes_per_op", "B", COUNT, LOWER, (CHURN, RACK), "fabric.bytes_sent / ops"),
    _m("net.messages_dropped", "count", COUNT, LOWER, (CHURN, RACK), "fabric.messages_dropped"),
    # core.broadcast / core.shard -> bubble windows, broadcast_total_tree_us.
    _m("core.broadcast.raise_sim_us", "us", SIM, LOWER, (RACK,), "start to bubble raised, tree"),
    _m("core.broadcast.legs_sim_us", "us", SIM, LOWER, (RACK,), "raised to deploys done, tree"),
    _m("core.broadcast.lower_sim_us", "us", SIM, LOWER, (RACK,), "deploys done to lowered, tree"),
    _m("core.broadcast.total_tree_us", "us", SIM, LOWER, (RACK,), "= broadcast_total_tree_us"),
    _m("core.broadcast.relay_fallbacks", "count", COUNT, LOWER, (RACK,), "all reasons, tree"),
    _m("core.broadcast.legs_per_cpu_s", "1/s", CPU, HIGHER, (RACK,), "tree arm, best of k"),
    _m("core.shard.decisions", "count", COUNT, LOWER, (RACK,),
       "rdx.shard.decisions per broadcast, sharded arm"),
    _m("core.shard.window_vs_tree_ratio", "ratio", SIM, LOWER, (RACK,),
       "bubble_window_sharded_us / bubble_window_tree_us"),
    # mem / sandbox -> failed_share and ops_per_cpu_s on deploy_churn.
    _m("mem.cache_stale_hits", "count", COUNT, LOWER, (CHURN,), "CacheStats.stale_hits"),
    _m("mem.cache_flushes", "count", COUNT, LOWER, (CHURN,), "CacheStats.flushes"),
    _m("sandbox.crashes", "count", COUNT, LOWER, (CHURN, RACK, SERVE), "crashes at first exec"),
    _m("sandbox.first_exec.cpu_s_per_op", "s", CPU, LOWER, FULL_STACK, "run_hook CPU per exec"),
    _m("sandbox.first_exec.sim_us", "us", SIM, LOWER, FULL_STACK, "cost_us run_hook returns"),
    # serve -> serve_p99_us_r8, serve_goodput_r16, serve_max_rate_in_slo.
    _m("serve.admission.queue_wait_p50_us_r8", "us", SIM, LOWER, (SERVE,), ""),
    _m("serve.admission.queue_wait_p99_us_r8", "us", SIM, LOWER, (SERVE,), ""),
    _m("serve.admission.queue_wait_p99_us_r16", "us", SIM, LOWER, (SERVE,), ""),
    _m("serve.admission.pace_p50_us_r16", "us", SIM, LOWER, (SERVE,), "class-bucket pacing"),
    _m("serve.admission.shed_share_r16", "share", COUNT, LOWER, (SERVE,), "all reasons"),
    _m("serve.service.service_p50_us_warm", "us", SIM, LOWER, (SERVE,), "warm-pool hits, r1"),
    _m("serve.service.service_p50_us_cold", "us", SIM, LOWER, (SERVE,), "cold stream, r1"),
    _m("serve.service.inflight_max_r16", "count", COUNT, HIGHER, (SERVE,), "seen at arrivals"),
    _m("serve.service.backlog_at_close_r16", "count", COUNT, LOWER, (SERVE,),
       "queued + inflight when the doors close"),
    _m("serve.warmpool.hit_ratio", "share", COUNT, HIGHER, (SERVE,), "all three arms"),
    _m("serve.warmpool.evictions", "count", COUNT, LOWER, (SERVE,), "all three arms"),
    _m("serve.max_rate_in_slo", "1/s", SIM, HIGHER, (SERVE,), "= serve_max_rate_in_slo"),
    _m("serve.generator_late_max_us", "us", SIM, LOWER, (SERVE,), "must be 0"),
    _m("core.qos.throttled_share_r16", "share", SIM, LOWER, (SERVE,),
       "tenant-bucket wait / service time"),
    # obs and the tracing itself -> ops_per_cpu_s on the full-stack workloads.
    _m("trace_overhead_ratio", "ratio", CPU, LOWER, ALL,
       "untraced / span-traced ops_per_cpu_s"),
) + tuple(
    _m(f"{package}.cpu_share", "share", CPU, LOWER, ALL,
       "cProfile time charged to the package / profiled total")
    for package in PACKAGES
) + tuple(
    _m(f"{package}.pycalls", "count", COUNT, LOWER, ALL,
       "calls of Python functions defined in the package (exact)")
    for package in PACKAGES
    if package != "other"
)

BY_NAME = {metric.name: metric for metric in END_TO_END + PER_LAYER}

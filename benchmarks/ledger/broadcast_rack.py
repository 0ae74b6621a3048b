"""broadcast_rack: fleet rollout of one program version per broadcast.

Why it exists: ``core.broadcast`` / ``core.shard`` / ``rdma`` / ``sim``
run under the full stack with the same fan-out code used three ways --
``tree`` (N=256, relay fan-out), ``flat`` (N=64, hub and spoke),
``sharded`` (N=256 over K=4 control planes, tree inside each shard).
The ROADMAP wants those collapsed into one mechanism ("flat is a tree of
degree N, unsharded is K=1"); all three bubble windows must hold when
that happens.  Every target gets the *same* program (v1 -> v2 -> ... via
``make_stress_variant``), so each broadcast compiles once and ``ebpf``
does little: what is left is the per-leg cost.

Each arm runs in its own subprocess, because ``RDX_TREE_BROADCAST`` is
read when ``repro`` is imported; the testbed is built once per arm and
every later broadcast is one CPU segment (the first is the warm-up that
fills relay QPs and the link cache).  Op = one target leg.  The timed
region is the ``broadcast(...)`` call; first exec is then checked on a
seeded sample of targets after every broadcast and on all of them after
the last, timed apart as ``sandbox.first_exec.*`` because decoding 256
images costs about twice the broadcast itself.
"""

from __future__ import annotations

import random

from repro.core.broadcast import CodeFlowGroup
from repro.ebpf.stress import make_stress_variant
from repro.errors import BroadcastAborted, SandboxCrash
from repro.exp.harness import make_testbed
from repro.exp.scale import sharded_testbed

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
ARMS = ("tree", "flat", "sharded")
SHARDS = 4
EXEC_SAMPLE = 32
#: Broadcast versions pre-generated per arm; more than any run uses.
MAX_VERSIONS = 48
#: Broadcasts the sim digest covers (warm-up included).  How many more
#: a run times depends on the host, and the digest may not.
DIGEST_VERSIONS = 4


def arm_size(cfg: Config) -> int:
    if cfg.smoke:
        return 32
    return 64 if cfg.part == "flat" else 256


def make_inputs(cfg: Config) -> dict:
    rng = random.Random(cfg.seed)
    base = patchable_program(rng, 400, 8, "fleet")
    versions = [base] + [
        make_stress_variant(base, imm=1 + rng.randrange(1 << 20))
        for _ in range(MAX_VERSIONS - 1)
    ]
    n = arm_size(cfg)
    return {
        "n": n,
        "versions": versions,
        "expected": [oracle_r0(program) for program in versions],
        "samples": [
            rng.sample(range(n), min(EXEC_SAMPLE, n)) for _ in versions
        ],
        "seed": cfg.seed,
    }


class Rack:
    """One arm's testbed plus the state successive broadcasts share."""

    def __init__(self, cfg: Config, inputs: dict):
        n = inputs["n"]
        if cfg.part == "sharded":
            bed = sharded_testbed(n, SHARDS, seed=inputs["seed"])
            self.group = bed.sharded
            self.fabric = bed.cluster.fabric
        else:
            bed = make_testbed(
                n_hosts=n, cores_per_host=4, hooks=(HOOK,),
                with_agents=False, seed=inputs["seed"],
            )
            self.group = CodeFlowGroup(bed.codeflows)
            self.fabric = bed.cluster.fabric
        self.sim = bed.sim
        self.sandboxes = bed.sandboxes
        self.inputs = inputs
        self.version = 0
        self.ledger = FailureLedger()
        self.digest = Digest()
        self.results = []
        self.exec_cost_us = []
        self.exec_cpu_s = 0.0
        self.execs = 0
        self.failed_legs = 0

    def first_exec(self, targets, version: int, rec: Recorder) -> None:
        """Run the hook on ``targets``: it must return ``version``'s r0."""
        expected = self.inputs["expected"][version]
        wrong = 0
        with Stopwatch() as watch, rec.span("exec_sweep", version) as sweep:
            for index in targets:
                try:
                    with rec.span("run_hook", version, sweep) as hook:
                        result, cost_us = self.sandboxes[index].run_hook(HOOK, CTX)
                        hook.add_sim(cost_us)
                except SandboxCrash:
                    self.ledger.fail("crash-at-first-exec")
                    wrong += 1
                    continue
                sweep.add_sim(cost_us)
                self.exec_cost_us.append(cost_us)
                if result is None or result.r0 != expected:
                    self.ledger.fail("wrong-r0")
                    wrong += 1
        self.exec_cpu_s += watch.cpu_s
        self.execs += len(targets)
        if version < DIGEST_VERSIONS:
            self.digest.add("exec", version, len(targets), wrong)

    def one_broadcast(self, rec: Recorder) -> Segment:
        """Roll the next version out to every target (the timed region)."""
        n = self.inputs["n"]
        program = self.inputs["versions"][self.version]
        rec.bind(self.sim)
        self.ledger.attempt(n)
        with rec.timed() as watch, rec.span("broadcast", self.version):
            try:
                result = self.sim.run_process(
                    self.group.broadcast([program] * n, HOOK, verify=False)
                )
            except BroadcastAborted as aborted:
                result = aborted.result
        self.failed_legs = 0
        if result.aborted:
            self.failed_legs = n
            self.ledger.fail("broadcast-aborted", n)
        elif result.degraded:
            self.failed_legs = len(result.failed_targets)
            self.ledger.fail("leg-failed-degraded", self.failed_legs)
        sim_values = {
            "window_us": result.bubble_window_us,
            "total_us": result.total_us,
            "raise_us": result.bubble_raised_us - result.started_us,
            "legs_us": result.deploys_done_us - result.bubble_raised_us,
            "lower_us": result.bubble_lowered_us - result.deploys_done_us,
        }
        if self.version < DIGEST_VERSIONS:
            self.digest.add(
                "broadcast", self.version, n - self.failed_legs,
                sim_values["window_us"], sim_values["total_us"],
            )
        self.results.append(sim_values)
        self.version += 1
        return Segment(
            ops=n, cpu_s=watch.cpu_s, wall_s=watch.wall_s, setup_s=0.0,
            sim=sim_values,
        )

    def sample_exec(self, rec: Recorder) -> None:
        """First exec on the seeded sample of the version just rolled out."""
        version = self.version - 1
        if not self.failed_legs:
            self.first_exec(self.inputs["samples"][version], version, rec)

    def counters(self) -> dict:
        return {
            **transport_counters(self.sim, self.fabric),
            "relay_fallbacks": series_total(self.sim, "rdx.broadcast.relay_fallback"),
            "shard_decisions": series_total(self.sim, "rdx.shard.decisions"),
        }


def run(cfg: Config) -> dict:
    with Stopwatch() as gen:
        inputs = make_inputs(cfg)
    with Stopwatch() as build:
        rack = Rack(cfg, inputs)
    off = Recorder(enabled=False)
    rack.one_broadcast(off)  # warm-up: relay QPs, link cache, first-deploy path
    rack.sample_exec(off)
    before, version_before = rack.counters(), rack.version

    measured = measure(cfg, rack.one_broadcast, after=rack.sample_exec)
    for segment in measured.every_segment():
        segment.setup_s = build.cpu_s
    after, broadcasts = rack.counters(), rack.version - version_before

    # Every target, after the last broadcast.
    if not rack.failed_legs:
        rack.first_exec(range(inputs["n"]), rack.version - 1, off)
    rack.digest.add("failed", rack.ledger.failed)

    n = inputs["n"]
    mid = {key: percentile([row[key] for row in rack.results], 50.0)
           for key in rack.results[0]}
    # Plain names: the runner keeps the tree arm's as the workload's
    # per-layer numbers and files every arm's under "name[arm]".
    metrics = {
        "legs": float(n),
        "best_cpu_s": measured.untraced.best_cpu_s,
        "bubble_window_us": mid["window_us"],
        "broadcast_total_us": mid["total_us"],
        "core.broadcast.legs_per_cpu_s": measured.untraced.best_rate,
        "core.broadcast.raise_sim_us": mid["raise_us"],
        "core.broadcast.legs_sim_us": mid["legs_us"],
        "core.broadcast.lower_sim_us": mid["lower_us"],
        "sandbox.first_exec.cpu_s_per_op": rack.exec_cpu_s / max(1, rack.execs),
        "sandbox.first_exec.sim_us": (
            sum(rack.exec_cost_us) / len(rack.exec_cost_us) if rack.exec_cost_us else 0.0
        ),
    }
    if cfg.trace:
        delta = {key: after[key] - before[key] for key in before}
        metrics.update(per_op_transport(delta, n * broadcasts))
        metrics.update({
            "rdma.wrs_per_doorbell_p50": wrs_per_doorbell_p50(rack.sim),
            "core.broadcast.relay_fallbacks": float(delta["relay_fallbacks"]),
            "core.shard.decisions": delta["shard_decisions"] / broadcasts,
            "exec_sweep_cpu_s": span_totals(measured.recorder.spans)["exec_sweep"]["cpu_s"],
        })
    return {
        "measured": measured,
        "ledger": rack.ledger,
        "digest": rack.digest.hexdigest(),
        "metrics": metrics,
        "timings": {
            f"bubble_window_{cfg.part}_us": summarize(
                [row["window_us"] for row in rack.results]
            )
        },
        "input_setup_s": gen.cpu_s,
    }

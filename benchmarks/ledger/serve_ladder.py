"""serve_ladder: open loop through ``repro.serve.DeployService``.

Why it exists: it is the only workload with queueing.  The stock
``default_classes()`` service (1,000 tenants 50/20/30 hot/bulk/cold, 8
targets, 12 prewarmed hot programs) is offered the stock
``ServeWorkloadSpec`` arrival mix at three fixed rates:

* ``r1``  (~3.4k offers per sim-second) -- the unloaded floor; the warm
  pool decides it;
* ``r8``  (~27k/s) -- the knee: nothing is shed yet but latency has
  already risen, because work waits for workers and target locks;
* ``r16`` (~55k/s) -- overload: admission, priority isolation and the
  worker count decide what is shed and what the hotpatch class sees.

Open loop: arrival times, tenants, targets and every program are
generated from the seed in set-up, and each offer is submitted at its
scheduled instant whatever the service is doing.  Latency is timed from
the *scheduled* arrival; how late the generator ran is reported and
must be 0.  Op = one offered ticket.

SLO: hotpatch-class p99 <= 1000 us, and shed + failed <= 1 % of offers.

The op ends at install-visible (``ticket.finished_us``), not at first
exec: ``DeployService`` deploys with ``retain_history=False``, and
executing every ticket's image trips the stale-extent crash on 5 % of
tickets at ``r1`` and 94 % at ``r16`` (README, "Known failure").  First
exec is instead checked once per (target, hook) after the drain, on
the image of the last ticket completed there.

CPU-clock numbers are the best of k identical ``r1`` arms (one arm of
the whole ladder costs ~6 CPU-s, so k of those do not fit a run);
``r8`` and ``r16`` run once, for their sim-clock numbers.
"""

from __future__ import annotations

import random

from repro.ebpf.stress import make_stress_program
from repro.errors import SandboxCrash
from repro.exp.harness import make_testbed
from repro.exp.serve_workload import ServeWorkloadSpec
from repro.serve import DeployService, default_classes

from harness import (
    Config,
    Digest,
    FailureLedger,
    Recorder,
    SLO_HOTPATCH_P99_US,
    Segment,
    Stopwatch,
    arm_meets_slo,
    max_rate_in_slo,
    measure,
    peak_rss_mb,
    percentile,
    require_percentile,
    summarize,
)
from stack import CTX, oracle_r0, series_total

RATES = {"r1": 1.0, "r8": 8.0, "r16": 16.0}
STOCK = ServeWorkloadSpec()


def window_us(cfg: Config, rate: str) -> float:
    if cfg.smoke:
        return 20_000.0
    return {"r1": 30_000.0, "r8": 55_000.0, "r16": 40_000.0}[rate]


def make_arm_inputs(cfg: Config, rate: str) -> dict:
    """The arrival plan of one rate arm: (offset us, tenant, target,
    program, hook, kind), every program already built."""
    rng = random.Random(f"{cfg.seed}:{rate}")
    spec = STOCK
    multiplier = RATES[rate]
    duration = window_us(cfg, rate)
    n_hot = int(spec.n_tenants * spec.hot_fraction)
    n_bulk = int(spec.n_tenants * spec.bulk_fraction)
    tenants = {
        "hot": [f"hot{i}" for i in range(n_hot)],
        "bulk": [f"bulk{i}" for i in range(n_bulk)],
        "cold": [f"cold{i}" for i in range(spec.n_tenants - n_hot - n_bulk)],
    }
    # Stock sizes plus a few seeded instructions, so that no latency is
    # the same constant under every seed.
    def sized(insns: int) -> int:
        return insns + rng.randrange(8)

    hot_pool = [
        make_stress_program(sized(spec.hot_insns), seed=rng.getrandbits(30), name=f"hotprog{i}")
        for i in range(spec.n_hot_programs)
    ]
    bulk_programs: dict = {}
    arrivals = []
    for kind, period in (
        ("hot", spec.hot_period_us),
        ("bulk", spec.bulk_period_us),
        ("cold", spec.cold_period_us),
    ):
        # A Poisson stream conditioned on its count: exactly rate x
        # window arrivals at independent uniform instants.  The mix of
        # kinds is then the same under every seed -- only the instants,
        # tenants, targets and programs differ -- so one seed's ladder
        # costs what another's does.
        count = round(duration * multiplier / period)
        arrivals.extend((rng.uniform(0.0, duration), kind) for _ in range(count))
    arrivals.sort()
    plan = []
    for at, kind in arrivals:
        tenant = rng.choice(tenants[kind])
        target = rng.randrange(spec.n_targets)
        if kind == "hot":
            program, hook = rng.choice(hot_pool), "ingress"
        elif kind == "bulk":
            program = bulk_programs.get(tenant)
            if program is None:
                program = bulk_programs[tenant] = make_stress_program(
                    sized(spec.bulk_insns), seed=rng.getrandbits(30),
                    name=f"bulkprog{tenant[4:]}",
                )
            hook = "egress"
        else:
            program = make_stress_program(
                sized(spec.cold_insns), seed=rng.getrandbits(30),
                name=f"coldprog{len(plan)}",
            )
            hook = "ingress"
        plan.append((at, tenant, target, program, hook, kind))
    return {
        "rate": rate, "seed": cfg.seed, "duration_us": duration,
        "tenants": tenants, "hot_pool": hot_pool, "plan": plan,
    }


def make_inputs(cfg: Config) -> dict:
    return {rate: make_arm_inputs(cfg, rate) for rate in RATES}


def one_arm(inputs: dict, rec: Recorder) -> Segment:
    """Build the service, open the doors for the window, drain, check."""
    spec = STOCK
    plan = inputs["plan"]
    with Stopwatch() as setup:
        bed = make_testbed(
            n_hosts=spec.n_targets, cores_per_host=8, seed=inputs["seed"]
        )
        sim = bed.sim
        rec.bind(sim)
        service = DeployService(bed.control, classes=default_classes())
        for kind, class_name in (("hot", "hotpatch"), ("bulk", "bulk"), ("cold", "standard")):
            for tenant in inputs["tenants"][kind]:
                service.register(tenant, class_name)

        def prewarm():
            for flow in bed.codeflows:
                for program in inputs["hot_pool"]:
                    yield from service.warm_pool.prewarm(flow, program)

        with rec.span("prewarm"):
            sim.run_process(prewarm())
        service.start()

    tickets = []
    scheduled = []
    inflight_seen = [0]
    backlog_at_close = [0]

    def generator(opened_at: float):
        for index, (at, tenant, target, program, hook, kind) in enumerate(plan):
            wait = opened_at + at - sim.now
            if wait > 0:
                yield sim.timeout(wait)
            with rec.span("submit", index):
                ticket = service.submit(
                    tenant, bed.codeflows[target], program, hook, kind=kind
                )
            tickets.append(ticket)
            scheduled.append(opened_at + at)
            if service.inflight > inflight_seen[0]:
                inflight_seen[0] = service.inflight
        backlog_at_close[0] = service.admission.pending() + service.inflight

    def body():
        opened_at = sim.now
        with rec.span("serve") as root:
            with rec.span("arrivals", parent=root):
                yield sim.spawn(generator(opened_at), name="ledger.arrivals")
            with rec.span("drain", parent=root):
                yield from service.drain()
                for ticket in tickets:
                    if ticket.accepted:
                        yield ticket.done
        return sim.now - opened_at

    with rec.timed() as watch:
        elapsed_us = sim.run_process(body())

    # -- the ledger: every offer ends somewhere -----------------------------
    ledger = FailureLedger()
    digest = Digest()
    ledger.attempt(len(plan))
    late_us = 0.0
    done = []
    last_on = {}  # (target name, hook) -> last completed ticket
    for ticket, due in zip(tickets, scheduled):
        late_us = max(late_us, ticket.submitted_us - due)
        if not ticket.accepted:
            ledger.shed(ticket.shed_reason or "unknown")
            digest.add("shed", ticket.shed_reason)
        elif ticket.completed:
            latency = ticket.finished_us - due
            done.append((ticket, latency))
            digest.add("ok", latency)
            key = (ticket.codeflow.sandbox.name, ticket.hook_name)
            if key not in last_on or ticket.finished_us > last_on[key].finished_us:
                last_on[key] = ticket
        else:
            reason = type(ticket.error).__name__ if ticket.error else "never-finished"
            ledger.fail(reason)
            digest.add("failed", reason)
    accounting = service.accounting()
    lost = accounting["unaccounted"] + accounting["queued"] + accounting["inflight"]
    if lost or accounting["offered"] != len(plan):
        ledger.fail("unaccounted", max(1, abs(lost)))

    # -- first exec, once per (target, hook), after the drain ------------------
    exec_cost = []
    with Stopwatch() as sweep, rec.span("exec_sweep") as sweep_span:
        for (_target, hook), ticket in sorted(last_on.items()):
            try:
                with rec.span("run_hook", parent=sweep_span) as hook_span:
                    result, cost_us = ticket.codeflow.sandbox.run_hook(hook, CTX)
                    hook_span.add_sim(cost_us)
            except SandboxCrash:
                ledger.fail("crash-at-final-exec")
                continue
            sweep_span.add_sim(cost_us)
            exec_cost.append(cost_us)
            if result is None or result.r0 != oracle_r0(ticket.program):
                ledger.fail("wrong-r0-final")
    digest.add("final", ledger.failed)

    latencies = [latency for _t, latency in done]
    hot = [latency for t, latency in done if t.class_name == "hotpatch"]
    window_s = inputs["duration_us"] / 1e6
    sim_values = {
        "elapsed_us": elapsed_us,
        "p50_us": percentile(latencies, 50.0) if latencies else 0.0,
        "completed": float(len(done)),
    }
    usage = service.qos.tenant_report()
    return Segment(
        ops=len(plan), cpu_s=watch.cpu_s, wall_s=watch.wall_s,
        setup_s=setup.cpu_s, sim=sim_values,
        extra={
            "ledger": ledger, "digest": digest.hexdigest(),
            "latencies": latencies, "hot": hot,
            "cold": [latency for t, latency in done if t.kind == "cold"],
            "by_class": {
                name: [lat for t, lat in done if t.class_name == name]
                for name in ("hotpatch", "standard", "bulk")
            },
            "queue_wait": [t.queue_wait_us for t, _ in done],
            "pace": [t.pace_us for t, _ in done],
            "service_warm": [t.service_us for t, _ in done if t.report.warm],
            "service_cold": [t.service_us for t, _ in done if t.kind == "cold"],
            "offered_per_sim_s": len(plan) / window_s,
            "goodput_per_sim_s": (
                sum(1 for lat in latencies if lat <= SLO_HOTPATCH_P99_US) / window_s
            ),
            "late_us": late_us,
            "inflight_max": inflight_seen[0],
            "backlog_at_close": backlog_at_close[0],
            "warm": (service.warm_pool.hits, service.warm_pool.misses,
                     service.warm_pool.evictions),
            "throttled_us": sum(u.throttled_us for u in usage.values()),
            "service_us_total": sum(t.service_us for t, _ in done),
            "exec_cpu_s": sweep.cpu_s, "execs": len(last_on),
            "exec_sim_us": sum(exec_cost) / len(exec_cost) if exec_cost else 0.0,
            "sim.events": sim.processed_events,
            "compiles": bed.control.compiles_run,
            "prepare_coalesced": bed.control.prepare_coalesced,
            "rdma.wrs": series_total(sim, "rdma.verbs"),
        },
    )


def run(cfg: Config) -> dict:
    with Stopwatch() as gen:
        inputs = make_inputs(cfg)
    recorder = Recorder(enabled=cfg.trace)

    def r1_arms(budget_share: float):
        return measure(
            cfg, lambda rec: one_arm(inputs["r1"], rec), budget_share,
            recorder=recorder,
        )

    # The r1 repeats go either side of the two loaded arms, so that a
    # slow spell of the host cannot swallow all of them; the memory
    # high-water mark is read once the whole ladder has run once.
    measured = r1_arms(0.15)
    arms = {rate: one_arm(inputs[rate], recorder) for rate in ("r8", "r16")}
    measured.rss_mb = peak_rss_mb()
    if not cfg.trace:
        later = r1_arms(0.2).untraced
        measured.untraced.kept.extend(later.kept)
        measured.untraced.reruns += later.reruns
        measured.untraced.discarded_contention.extend(later.discarded_contention)
    arms["r1"] = measured.first

    ledger = FailureLedger()
    digest = Digest()
    problems = []
    verdicts = []
    for rate, arm in arms.items():
        extra = arm.extra
        ledger.merge(extra["ledger"])
        digest.add(rate, extra["digest"])
        if extra["late_us"] > 0:
            problems.append(f"{rate}: generator ran {extra['late_us']:.3f} sim-us late")
        arm_ledger = extra["ledger"]
        hot_p99 = percentile(extra["hot"], 99.0) if extra["hot"] else float("inf")
        verdicts.append((
            extra["offered_per_sim_s"],
            arm_meets_slo(hot_p99, arm_ledger.failed_share, extra["backlog_at_close"]),
        ))

    r1, r8, r16 = arms["r1"].extra, arms["r8"].extra, arms["r16"].extra
    smoke = cfg.smoke

    def tail(values, p, what):
        # A smoke run has too few samples for the gating percentiles;
        # it reports the highest one it does support.
        if smoke:
            return summarize(values)["tail"]
        return require_percentile(values, p, what)

    hits, misses, evictions = (sum(arm.extra["warm"][i] for arm in arms.values()) for i in range(3))
    r16_ledger = r16["ledger"]
    metrics = {
        "ops_per_cpu_s": measured.untraced.best_rate,
        "serve_p50_us_r1": percentile(r1["latencies"], 50.0),
        "serve_cold_p50_us_r1": percentile(r1["cold"], 50.0),
        "serve_p99_us_r8": tail(r8["latencies"], 99.0, "serve_p99_us_r8"),
        "serve_hotpatch_p99_us_r8": tail(r8["hot"], 99.0, "serve_hotpatch_p99_us_r8"),
        "serve_hotpatch_p99_us_r16": tail(r16["hot"], 99.0, "serve_hotpatch_p99_us_r16"),
        "serve_goodput_r8": r8["goodput_per_sim_s"],
        "serve_goodput_r16": r16["goodput_per_sim_s"],
        "serve_max_rate_in_slo": max_rate_in_slo(verdicts),
        "serve.max_rate_in_slo": max_rate_in_slo(verdicts),
        "serve.admission.queue_wait_p50_us_r8": percentile(r8["queue_wait"], 50.0),
        "serve.admission.queue_wait_p99_us_r8": tail(r8["queue_wait"], 99.0, "queue_wait r8"),
        "serve.admission.queue_wait_p99_us_r16": tail(r16["queue_wait"], 99.0, "queue_wait r16"),
        "serve.admission.pace_p50_us_r16": percentile(r16["pace"], 50.0),
        "serve.admission.shed_share_r16": r16_ledger.shed_total / max(1, r16_ledger.attempted),
        "serve.service.service_p50_us_warm": percentile(r1["service_warm"], 50.0),
        "serve.service.service_p50_us_cold": percentile(r1["service_cold"], 50.0),
        "serve.service.inflight_max_r16": float(r16["inflight_max"]),
        "serve.service.backlog_at_close_r16": float(r16["backlog_at_close"]),
        "serve.warmpool.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.warmpool.evictions": float(evictions),
        "serve.generator_late_max_us": max(arm.extra["late_us"] for arm in arms.values()),
        "core.qos.throttled_share_r16": (
            r16["throttled_us"] / r16["service_us_total"] if r16["service_us_total"] else 0.0
        ),
        "core.control_plane.compiles_per_op": r1["compiles"] / arms["r1"].ops,
        "core.control_plane.prepare_coalesced": float(
            sum(arm.extra["prepare_coalesced"] for arm in arms.values())
        ),
        "sim.events_per_op": r1["sim.events"] / arms["r1"].ops,
        "rdma.wrs_per_op": r1["rdma.wrs"] / arms["r1"].ops,
        "sandbox.first_exec.cpu_s_per_op": (
            sum(arm.extra["exec_cpu_s"] for arm in arms.values())
            / max(1, sum(arm.extra["execs"] for arm in arms.values()))
        ),
        "sandbox.first_exec.sim_us": r1["exec_sim_us"],
        "sandbox.crashes": float(ledger.failed_by_reason.get("crash-at-final-exec", 0)),
    }
    for reason, count in sorted(r16_ledger.shed_by_reason.items()):
        metrics[f"serve.admission.shed_share_r16.{reason}"] = count / r16_ledger.attempted
    for rate, arm in arms.items():
        metrics[f"serve.offered_per_sim_s_{rate}"] = arm.extra["offered_per_sim_s"]

    timings = {}
    for rate, arm in arms.items():
        timings[f"serve_latency_us_{rate}"] = summarize(arm.extra["latencies"])
        for name, values in arm.extra["by_class"].items():
            if values:
                timings[f"serve_{name}_latency_us_{rate}"] = summarize(values)
    return {
        "measured": measured,
        "ledger": ledger,
        "digest": digest.hexdigest(),
        "metrics": metrics,
        "timings": timings,
        "input_setup_s": gen.cpu_s,
        "problems": problems,
    }

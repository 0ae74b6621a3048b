"""The JIT's charge runs under the verifier's, and hides no work.

A registry miss on the pipelined arm runs the verifier's work, then the
JIT's, both at zero sim time, then bills them on two control-host cores
at once: the verifier's charge inline, the JIT's in one spawned ``jit``
process.  The miss therefore takes as long as the longer charge (the
verifier's), while the CPU is still billed for both.  These tests pin
the edges of that overlap, for eBPF and for Wasm:

* an idle plane advances the clock by the verifier's cost and the CPU's
  busy time by both costs; the serial arm and a one-core CPU advance
  the clock by both;
* a rejected program costs no sim time and never enters the JIT;
* a compile abandoned mid-charge -- running, queued, or waiting on the
  JIT -- leaves no core claimed, no in-flight key and no live charge;
* concurrent misses on one key still run one compile, and a hit spawns
  nothing;
* a compile's charges queue behind install work: a dispatch requested
  after a queued verifier charge takes the core first;
* on three or more cores at most ``cores - 1`` charges hold cores at
  once, so a warm deploy dispatches at once while every slot compiles.
"""

import pytest

from repro import params
from repro.ebpf import opcodes as op
from repro.ebpf.insn import Insn
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program
from repro.errors import VerifierError
from repro.exp.harness import make_testbed
from repro.obs import telemetry_of
from repro.wasm.filters import make_header_filter
from repro.wasm.module import WasmModule

pytestmark = pytest.mark.arm(pipelined_deploy=True)

PROGRAMS = {
    "ebpf": lambda: make_stress_program(818, seed=1, name="app"),
    "wasm": lambda: make_header_filter(padding=100, name="hdr"),
}
REJECTED = {
    "ebpf": lambda: BpfProgram([Insn(op.BPF_JMP | op.BPF_EXIT)], name="bad"),
    "wasm": lambda: WasmModule(insns=(), name="bad"),
}
both_kinds = pytest.mark.parametrize("kind", sorted(PROGRAMS))


def _costs(program) -> tuple[float, float]:
    """The verifier's and the JIT's charge for one compile of ``program``."""
    n = len(program.insns)
    family = params.WASM_COMPILE_FACTOR if isinstance(program, WasmModule) else 1.0
    factor = params.RDX_CONTROL_COMPILE_FACTOR
    return (
        params.verify_cost_us(n) * family * factor,
        params.jit_cost_us(n) * family * factor,
    )


def _prepare(bed, program):
    return bed.control.prepare_for(bed.codeflow, program)


def _jit_charges(bed, step) -> tuple:
    """``(step()'s result, the jit processes it spawned)``."""
    charges = []
    spawn = bed.sim.spawn

    def spy(generator, name="", **kwargs):
        process = spawn(generator, name=name, **kwargs)
        if name == "jit":
            charges.append(process)
        return process

    bed.sim.spawn = spy
    try:
        result = step()
    finally:
        del bed.sim.spawn
    return result, charges


def _miss(bed, program) -> float:
    """Run one registry miss on ``program``; returns the CPU-busy µs it
    billed."""
    cpu = bed.control.host.cpu
    busy = cpu.busy_us
    bed.sim.run_process(_prepare(bed, program))
    assert cpu.in_use == 0
    return cpu.busy_us - busy


# -- the clock and the CPU ------------------------------------------------------


@both_kinds
def test_an_idle_plane_waits_only_for_the_verifier(testbed, kind):
    program = PROGRAMS[kind]()
    verify_us, jit_us = _costs(program)
    assert 0 < jit_us < verify_us
    start = testbed.sim.now
    busy, charges = _jit_charges(testbed, lambda: _miss(testbed, program))
    assert testbed.sim.now == start + verify_us
    assert busy == pytest.approx(verify_us + jit_us)  # no work is hidden
    assert len(charges) == 1 and not charges[0].is_alive
    control = testbed.control
    assert (control.validations_run, control.compiles_run) == (1, 1)


@both_kinds
@pytest.mark.arm(pipelined_deploy=False)
def test_the_serial_arm_charges_one_after_the_other(testbed, kind):
    program = PROGRAMS[kind]()
    verify_us, jit_us = _costs(program)
    start = testbed.sim.now
    busy, charges = _jit_charges(testbed, lambda: _miss(testbed, program))
    assert testbed.sim.now == start + verify_us + jit_us
    assert busy == pytest.approx(verify_us + jit_us)
    assert charges == []


@both_kinds
def test_one_core_adds_the_charges_up(config, kind):
    bed = make_testbed(n_hosts=1, cores_per_host=1, config=config)
    program = PROGRAMS[kind]()
    verify_us, jit_us = _costs(program)
    start = bed.sim.now
    busy = _miss(bed, program)
    assert bed.sim.now == start + verify_us + jit_us
    assert busy == pytest.approx(verify_us + jit_us)


@pytest.mark.arm(obs=True)
def test_a_saturated_plane_runs_the_verifier_before_its_jit(config):
    """With every core busy both charges queue.  The verifier's queued
    first, so it takes the first core freed; the JIT's takes that core
    next, long before the other one frees."""
    bed = make_testbed(n_hosts=1, cores_per_host=2, config=config)
    cpu = bed.control.host.cpu
    first_free_us, next_free_us = 100.0, 5000.0
    cpu.spawn_task(first_free_us, name="hog")
    cpu.spawn_task(next_free_us, name="hog")
    program = PROGRAMS["ebpf"]()
    verify_us, jit_us = _costs(program)
    start = bed.sim.now
    bed.sim.run_process(_prepare(bed, program))
    spans = _spans(bed)
    validate, jit = spans["rdx.validate"], spans["rdx.jit"]
    assert validate.start_us == jit.start_us == start
    assert validate.end_us == pytest.approx(start + first_free_us + verify_us)
    assert jit.end_us == pytest.approx(validate.end_us + jit_us)
    assert bed.sim.now == jit.end_us


@pytest.mark.arm(obs=True)
def test_install_work_takes_the_core_before_a_queued_compile(config):
    """Compile charges ask for the CPU below install work.  On one core,
    busy when a verifier charge queues, a deploy's dispatch requested
    after it runs first; the verifier then waits for the dispatch."""
    bed = make_testbed(n_hosts=1, cores_per_host=1, config=config)
    sim, cpu = bed.sim, bed.control.host.cpu
    hot = make_stress_program(60, seed=6, name="hot")
    entry = sim.run_process(_prepare(bed, hot))
    linked = sim.run_process(bed.codeflow.link_code(entry.binary))
    hog_us = 100.0
    cpu.spawn_task(hog_us, name="hog")
    start = sim.now
    sim.spawn(_prepare(bed, PROGRAMS["ebpf"]()), name="compile")
    sim.run(until=start + 1.0)
    assert cpu.queue_len == 2  # the verifier's charge, then the JIT's
    report = sim.run_process(bed.codeflow.deploy_prog(hot, linked, "ingress"))
    sim.run()
    verify_us, _ = _costs(PROGRAMS["ebpf"]())
    validate = _spans(bed)["rdx.validate"]
    assert report.dispatch_us < verify_us  # behind the hog, not the verifier
    assert validate.end_us == pytest.approx(
        start + hog_us + params.RDX_DISPATCH_FAST_US + verify_us
    )


def _cold(count) -> list:
    """``count`` distinct programs, each a registry miss."""
    return [
        make_stress_program(818, seed=seed, name=f"cold{seed}")
        for seed in range(1, count + 1)
    ]


def test_a_warm_deploy_dispatches_while_every_slot_compiles(config):
    """Three cold compiles -- six charges -- on four cores: three hold
    the compile slots and one core stays free, so the warm deploy's
    dispatch takes no longer than on an idle plane."""
    bed = make_testbed(n_hosts=1, cores_per_host=4, config=config)
    sim, cpu = bed.sim, bed.control.host.cpu
    hot = make_stress_program(60, seed=6, name="hot")
    # Deployed once, so this link is a cache hit: no stub rendezvous.
    sim.run_process(bed.control.inject(bed.codeflow, hot, "ingress"))
    entry = sim.run_process(_prepare(bed, hot))
    linked = sim.run_process(bed.codeflow.link_code(entry.binary))
    for program in _cold(3):
        sim.spawn(_prepare(bed, program), name="compile")
    sim.run(until=sim.now + 1.0)
    report = sim.run_process(bed.codeflow.deploy_prog(hot, linked, "ingress"))
    assert report.dispatch_us == pytest.approx(params.RDX_DISPATCH_FAST_US)
    sim.run()
    assert bed.control.compiles_run == 4 and cpu.in_use == 0


@pytest.mark.parametrize("cores", (3, 4))
def test_compiles_never_hold_every_core(config, cores):
    bed = make_testbed(n_hosts=1, cores_per_host=cores, config=config)
    sim, cpu = bed.sim, bed.control.host.cpu
    compiles = [
        sim.spawn(_prepare(bed, program), name="compile")
        for program in _cold(cores)
    ]
    peak = 0
    while not all(process.triggered for process in compiles):
        peak = max(peak, cpu.in_use)
        sim.run(until=sim.now + 5.0)
    assert peak == cores - 1
    assert bed.control.compiles_run == cores


def _spans(bed) -> dict:
    """The newest finished span of each name."""
    return {span.name: span for span in telemetry_of(bed.sim).tracer.finished_spans}


@pytest.mark.arm(obs=True)
def test_the_jit_span_opens_with_the_validate_span(testbed):
    program = PROGRAMS["ebpf"]()
    verify_us, jit_us = _costs(program)
    start = testbed.sim.now
    testbed.sim.run_process(_prepare(testbed, program))
    spans = _spans(testbed)
    validate, jit = spans["rdx.validate"], spans["rdx.jit"]
    assert validate.start_us == jit.start_us == start
    assert validate.duration_us == pytest.approx(verify_us)
    assert jit.duration_us == pytest.approx(jit_us)
    registry = telemetry_of(testbed.sim).registry
    assert registry.get("rdx.validate.cpu_us").count == 1
    assert registry.get("rdx.jit.cpu_us").count == 1


# -- what does not compile ---------------------------------------------------------


@both_kinds
def test_a_rejected_program_costs_nothing_and_never_enters_the_jit(
    testbed, kind, monkeypatch
):
    entered = []
    monkeypatch.setattr(
        "repro.core.control_plane.jit_compile", lambda *a, **k: entered.append(a)
    )
    monkeypatch.setattr(
        "repro.wasm.compiler.wasm_compile", lambda *a, **k: entered.append(a)
    )
    control = testbed.control
    start, counts = testbed.sim.now, (control.validations_run, control.compiles_run)

    def body():
        with pytest.raises(VerifierError):
            yield from _prepare(testbed, REJECTED[kind]())

    _, charges = _jit_charges(testbed, lambda: testbed.sim.run_process(body()))
    assert testbed.sim.now == start
    assert entered == [] and charges == []
    assert (control.validations_run, control.compiles_run) == counts
    assert not control.artifacts._inflight


# -- a compile abandoned mid-charge ------------------------------------------------


def _leg(bed, program, deadline_us) -> bool:
    """Deploy ``program`` the way a broadcast leg does: spawned, raced
    against a deadline and interrupted if the deadline wins; returns
    whether it finished in time."""
    sim = bed.sim

    def leg():
        inner = sim.spawn(
            bed.control.inject(bed.codeflow, program, "ingress"), name="inject"
        )
        yield sim.any_of([inner, sim.timeout(deadline_us)])
        if not inner.triggered:
            inner.interrupt("deploy leg exceeded its deadline")
            return False
        return True

    return sim.run_process(leg())


@both_kinds
@pytest.mark.parametrize("cores, hog, at, ran", [
    (4, None, "both", ()),  # both charges running
    (4, None, "verify", ("jit",)),  # the JIT's charge done, the verifier's running
    (1, None, "jit", ("verify",)),  # the verifier's charge done, the JIT's running
    (2, "cores", "queued", ()),  # both charges queued behind busy cores
    (4, "slots", "queued", ()),  # both charges queued behind held compile slots
], ids=("both-running", "jit-done", "verify-done", "both-queued", "slots-queued"))
def test_an_abandoned_compile_releases_everything(
    config, kind, cores, hog, at, ran
):
    bed = make_testbed(n_hosts=1, cores_per_host=cores, config=config)
    sim, control = bed.sim, bed.control
    cpu, slots = control.host.cpu, control.compile_slots
    hog_us = 1e4 if hog else 0.0
    if hog == "cores":
        for _ in range(cpu.cores):
            cpu.spawn_task(hog_us, name="hog")
    elif hog == "slots":
        for _ in range(slots.capacity):
            sim.spawn(slots.using(hog_us), name="hog")
    program = PROGRAMS[kind]()
    verify_us, jit_us = _costs(program)
    deadline_us = {
        "both": jit_us / 2, "verify": (jit_us + verify_us) / 2,
        "jit": verify_us + jit_us / 2, "queued": hog_us / 2,
    }[at]
    busy = cpu.busy_us
    finished, charges = _jit_charges(bed, lambda: _leg(bed, program, deadline_us))
    assert not finished
    sim.run()  # the hogs finish; a withdrawn charge never runs
    assert (cpu.in_use, cpu.queue_len) == (0, 0)
    assert slots is None or (slots.in_use, slots.queue_len) == (0, 0)
    assert len(charges) == 1 and not charges[0].is_alive
    assert not control.artifacts._inflight
    assert len(control.artifacts.registry) == 0
    assert sim.failed_processes == []
    # Only a charge that ran to its end is billed and counted.
    assert cpu.busy_us - busy == pytest.approx(
        (hog == "cores") * cpu.cores * hog_us
        + ("verify" in ran) * verify_us + ("jit" in ran) * jit_us
    )
    assert (control.validations_run, control.compiles_run) == (
        int("verify" in ran), int("jit" in ran)
    )
    # Nothing stale is left to coalesce with: the next miss compiles.
    sim.run_process(_prepare(bed, program))
    assert control.compiles_run == int("jit" in ran) + 1


# -- single flight and hits -----------------------------------------------------------


@both_kinds
def test_concurrent_misses_on_one_key_run_one_compile(testbed, kind):
    program = PROGRAMS[kind]()
    sim = testbed.sim

    def both():
        first = sim.spawn(_prepare(testbed, program))
        second = sim.spawn(_prepare(testbed, program))
        yield sim.all_of([first, second])
        return first.value, second.value

    (first, second), charges = _jit_charges(testbed, lambda: sim.run_process(both()))
    assert first is second
    control = testbed.control
    assert (control.validations_run, control.compiles_run) == (1, 1)
    assert control.prepare_coalesced == 1
    assert len(charges) == 1


def test_a_registry_hit_spawns_nothing(testbed):
    program = PROGRAMS["ebpf"]()
    testbed.sim.run_process(_prepare(testbed, program))
    start = testbed.sim.now
    _, charges = _jit_charges(
        testbed, lambda: testbed.sim.run_process(_prepare(testbed, program))
    )
    assert charges == [] and testbed.sim.now == start
    assert testbed.control.compiles_run == 1


def test_the_public_stages_stay_sequential(testbed):
    """``validate_code`` then ``jit_compile_code`` -- the API's two
    calls -- charge one after the other on either arm."""
    program = PROGRAMS["ebpf"]()
    verify_us, jit_us = _costs(program)
    control = testbed.control

    def body():
        yield from control.validate_code(program)
        yield from control.jit_compile_code(program)

    start = testbed.sim.now
    testbed.sim.run_process(body())
    assert testbed.sim.now == start + verify_us + jit_us
    assert (control.validations_run, control.compiles_run) == (1, 1)

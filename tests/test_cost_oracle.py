"""Cost table: what each named scenario costs, in counts that repeat.

The paper's case for agentless deploys is that an install is a few
one-sided WRs and no target CPU (§3, Table 1), and the simulator's case
for scale is that each WR, event and instruction costs a fixed number
of Python calls.  :data:`COSTS` pins both, per scenario of
:data:`SCENARIOS`, through one counting harness:

* :func:`profile` -- one ``sys.setprofile`` hook, gc off: each Python
  frame of ``src/repro`` by ``package/module.Class.function`` (this
  file's own as ``cost.function``); every other Python frame and every
  C call as a ``~`` key naming its nearest ``src/repro`` caller;
* :func:`posts` -- every WR a ``QueuePair`` posts, as ``(sim time,
  route, kind, target, wr)``, kind one of ``write`` (a body byte),
  ``flag``, ``doorbell``, ``cas`` or ``read``;
* :func:`spawns` -- every process a simulator spawns, by name and time;
* :func:`intervals` -- every call of a process body, as its interval.

Every scenario builds its bed from an explicit :class:`Config`, so its
rows mean the same under every ``RDX_*`` arm.  A scaling claim is rows
at two or three sizes plus their difference; an ordering claim is rows
of the WR kinds posted inside a named interval (the bubble window, a
lock hold, before the verdict).  Rows pin only what is the same on
every Python: ``src/repro`` frames by name (a comprehension's frame,
which 3.12 inlines, is a ``~`` key), WRs, spawns and sim times.  A total
that counts stdlib or C frames is a live-only ``~`` row that
:data:`CLAIMS` bounds; the claims also restate the bounds and orderings
that regenerating the table could otherwise absorb.

Regenerate with ``PYTHONPATH=src python tests/test_cost_oracle.py``;
``python -m tests.oracles --check-against <rev>`` names every row that
moved, and ``python -m tests.mutants`` shows that taking back a named
saving fails its claim.
"""

import gc
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import pytest

import repro
from repro import params
from repro.core.broadcast import CodeFlowGroup
from repro.core.control_plane import RdxControlPlane
from repro.core.reconcile import Reconciler, resume_control_plane
from repro.core.sync import RemoteSync
from repro.core.xstate import XStateSpec
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.jit import decode_image, jit_compile
from repro.ebpf.maps import MapType
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.ebpf.verifier import verify
from repro.exp.harness import make_testbed
from repro.hb import checker
from repro.mem.cache import CacheModel
from repro.mem.memory import PhysicalMemory
from repro.obs import metrics
from repro.obs.telemetry import Telemetry
from repro.params import Config, configure
from repro.rdma.qp import QueuePair, WorkRequest, WrOpcode
from repro.rdma.rnic import RNIC_MTU_BYTES
from repro.serve import DeployService, default_classes
from repro.sim.core import Simulator
from repro.sim.resources import CPU

SRC = Path(repro.__file__).parent
HERE = Path(__file__).resolve()
#: The code defaults: pipelined, flat, obs on, no hb, no target labels.
BASE = Config()
TREE = replace(BASE, tree_broadcast=True)
SERVE = replace(BASE, obs_target_labels=True)
FAST_US = params.RDX_DISPATCH_FAST_US


# -- the counting harness ------------------------------------------------------

@cache
def _frame_name(code):
    """``package/module.Class.function`` of a ``src/repro`` code object,
    ``cost.function`` of this file's, else None."""
    path = Path(code.co_filename)
    if path == HERE:
        return f"cost.{code.co_name}"
    if SRC not in path.parents or code.co_name in ("<listcomp>", "<dictcomp>", "<setcomp>"):
        return None
    module = sys.modules.get(".".join(path.relative_to(SRC.parent).with_suffix("").parts))
    owner = next((
        f"{cls.__name__}." for cls in vars(module or object).values()
        if isinstance(cls, type) and any(_code_of(attr) is code for attr in vars(cls).values())
    ), "")
    return f"{path.parent.name}/{path.stem}.{owner}{code.co_name}"


def _code_of(attr):
    """The code object of a method, static or class method, or property."""
    function = getattr(attr, "__func__", getattr(attr, "fget", attr))
    return getattr(function, "__code__", None)


def _caller(frame) -> str:
    while frame is not None and _frame_name(frame.f_code) is None:
        frame = frame.f_back
    return "-" if frame is None else _frame_name(frame.f_code)


def profile(function, *args) -> Counter:
    """The calls ``function(*args)`` makes, its own frame included:
    named frames by name, any other Python frame as
    ``~file.function@caller``, each C call as ``~builtin()@caller``."""
    counts = Counter()

    def on_event(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = _frame_name(code)
            if name is None:
                name = f"~{Path(code.co_filename).stem}.{code.co_name}@{_caller(frame.f_back)}"
            counts[name] += 1
        elif event == "c_call":
            counts[f"~{getattr(arg, '__qualname__', arg)}()@{_caller(frame)}"] += 1

    gc.disable()  # a collection would run whatever callbacks are installed
    sys.setprofile(on_event)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts


def ours(counts: Counter, *prefixes, skip=()) -> dict:
    """The named frames of ``counts`` (those under ``prefixes``, none
    under ``skip``), sorted."""
    return {k: n for k, n in sorted(counts.items()) if n and k[0] != "~" and k.startswith(prefixes or "")
            and not k.startswith(skip)}


def py(counts: Counter, skip=()) -> int:
    """Python frames, stdlib included, but for names under ``skip``."""
    return sum(n for k, n in counts.items() if "()@" not in k and not k.startswith(tuple(skip)))


def measure(rows: dict, row: str, function, *args) -> Counter:
    """Profile ``function(*args)``: its named frames are ``row``, the
    whole count the live-only ``~row``."""
    counts = profile(function, *args)
    rows[row], rows["~" + row] = ours(counts), counts
    return counts


@contextmanager
def patched(owner, name, wrap):
    """``owner.name`` is ``wrap(owner.name)`` until exit."""
    saved = vars(owner).get(name, patched)
    setattr(owner, name, wrap(getattr(owner, name, None)))
    try:
        yield
    finally:
        if saved is patched:
            delattr(owner, name)
        else:
            setattr(owner, name, saved)


@contextmanager
def posts(bed):
    """``[(sim time, route, kind, target, wr)]`` of every WR any QP
    posts while open; ``control`` is a codeflow's own QP's route,
    ``relay`` any other's."""
    control = {id(codeflow.sync.qp) for codeflow in bed.codeflows}
    doorbells = {codeflow.sandbox.control_addr + 24 for codeflow in bed.codeflows}
    flags = {codeflow.sandbox.bubble_addr for codeflow in bed.codeflows}
    log = []

    def kind(wr):
        if wr.opcode is WrOpcode.COMP_SWAP:
            return "cas"
        if wr.opcode is not WrOpcode.RDMA_WRITE:
            return wr.opcode.name.lower().replace("rdma_", "")
        if wr.remote_addr in flags:
            return "flag"
        return "doorbell" if wr.remote_addr in doorbells and len(wr.data) == 8 else "write"

    def spy(post, batch):
        def posting(qp, wrs):
            route = "control" if id(qp) in control else "relay"
            for wr in wrs if batch else [wrs]:
                log.append((bed.sim.now, route, kind(wr), qp.remote.rnic.host.name, wr))
            return post(qp, wrs)
        return posting

    with patched(QueuePair, "post_send", lambda post: spy(post, False)), \
            patched(QueuePair, "post_send_batch", lambda post: spy(post, True)):
        yield log


@contextmanager
def spawns(sim):
    """``[(name, sim time)]`` of every process ``sim`` spawns while open."""
    log = []

    def wrap(spawn):
        def spy(gen, name=""):
            log.append((name, sim.now))
            return spawn(gen, name)
        return spy

    with patched(sim, "spawn", wrap):
        yield log


@contextmanager
def intervals(sim, owner, name):
    """``[[start, end, args, kwargs]]`` of every call of process body
    ``owner.name``, in the order they started (``end`` None until it
    returns)."""
    log = []

    def wrap(body):
        def timed(*args, **kwargs):
            log.append(entry := [sim.now, None, args, kwargs])
            result = yield from body(*args, **kwargs)
            entry[1] = sim.now
            return result
        return timed

    with patched(owner, name, wrap):
        yield log


def kinds(log, names="") -> dict:
    """``{name: n}`` of a spawn log, names under ``names`` only."""
    return dict(sorted(Counter(name for name, _ in log if name.startswith(names)).items()))


def _sim(config=BASE) -> Simulator:
    sim = Simulator()
    configure(sim, config)
    return sim


def _bed(config=BASE, n=1, **kwargs):
    return make_testbed(n_hosts=n, cores_per_host=4, config=config, **kwargs)


def _us(value: float) -> float:
    return round(value, 6)


#: Scenario -> a builder returning its ``{row: value}``.
SCENARIOS = {}


def scenario(name):
    return lambda build: SCENARIOS.setdefault(name, build)


# -- compile: verify and jit_compile ---------------------------------------------

SIZES = (64, 818, 1300)


def scalar_program(size: int, diamonds: int = 0) -> BpfProgram:
    """The stress generator's arithmetic on a byte of the context, to
    exactly ``size`` instructions, after ``diamonds`` two-armed branches
    whose arms rejoin with equal states."""
    asm = Asm().mov_reg(op.R6, op.R1).mov_imm(op.R7, 1).mov_imm(op.R0, 0)
    for i in range(diamonds):
        asm.ldx_b(op.R8, op.R6, i).jmp_imm(op.BPF_JGT, op.R8, 127, f"else{i}").alu64_imm(op.BPF_ADD, op.R7, 3)
        asm.ja(f"join{i}").label(f"else{i}").alu64_imm(op.BPF_XOR, op.R7, 0x55).label(f"join{i}")
    block = 0
    while len(asm) + 6 <= size - 2:
        block += 1
        asm.ldx_b(op.R8, op.R6, block % 256).alu64_reg(op.BPF_ADD, op.R7, op.R8)
        asm.alu64_imm(op.BPF_XOR, op.R7, 0x5A5A + block).alu64_imm(op.BPF_MUL, op.R7, 7)
        asm.alu64_imm(op.BPF_RSH, op.R7, 1).alu32_imm(op.BPF_AND, op.R7, 0x7FFF_FFFF)
    while len(asm) < size - 2:
        asm.alu64_imm(op.BPF_ADD, op.R7, 0)
    program = BpfProgram(asm.mov_reg(op.R0, op.R7).exit_().build())
    assert len(program) == size
    return program


@scenario("compile")
def _compile():
    """Verify and JIT straight-line code at three lengths; verify 818
    instructions behind 8 and 24 diamonds; JIT a two-relocation
    (``with_map``) stress program at three lengths, per arch."""
    rows = {}
    for size in SIZES:
        measure(rows, f"verify[{size}]", verify, scalar_program(size))
    rows["verify[1300]-verify[64]"] = ours(rows["~verify[1300]"] - rows["~verify[64]"])
    rows["states visited[1300]"] = verify(scalar_program(1300)).states_visited
    for diamonds in (8, 24):
        measure(rows, f"verify[818,{diamonds} diamonds]", verify, scalar_program(818, diamonds))
    for size in SIZES:
        measure(rows, f"jit[{size}]", jit_compile, scalar_program(size))
    for arch in ("x86_64", "arm64"):
        measure(rows, f"jit[{arch},plain,818]", jit_compile, make_stress_program(818, seed=1), arch)
        for size in SIZES:
            program = make_stress_program(size, seed=1, with_map=True)
            measure(rows, f"jit[{arch},map,{size}]", jit_compile, program, arch)
    rows["relocations"] = len(jit_compile(make_stress_program(64, with_map=True)).relocations)
    return rows


def _all(rows, *names) -> list:
    return [sum(rows["~" + name].values()) for name in names]


def _flat(rows, stem, bound=60) -> bool:
    """Every call ``stem[size]`` makes: the same at each size, at most ``bound``."""
    totals = _all(rows, *(stem.format(size) for size in SIZES))
    return len(set(totals)) == 1 and totals[0] <= bound


def _per_diamond(rows) -> bool:
    plain, some, more = _all(rows, "verify[818]", "verify[818,8 diamonds]", "verify[818,24 diamonds]")
    return (more - plain) / 24 == (some - plain) / 8 and 0 < (some - plain) / 8 <= 24


def _per_relocation(rows, arch) -> bool:
    return rows["relocations"] == 2 and _flat(rows, f"jit[{arch},map,{{}}]", 10**9) and (
        0 < _all(rows, f"jit[{arch},map,64]")[0] - _all(rows, f"jit[{arch},plain,818]")[0] <= 2 * 24)


# -- first exec: decode, fetch, execute ---------------------------------------------

ADDRESSES = {"bpf_map_lookup_elem": 0xFFFF_8000_0010_0040, "stress_map": 0x7000_2000}
READS = (8, 64, 4096, 13_012)
MISSES = (8, 4096, 13_012)


def helper_at(address):
    return {ADDRESSES["bpf_map_lookup_elem"]: 1}.get(address)


def map_slot_at(address):
    return {ADDRESSES["stress_map"]: 0}.get(address)


def _image(size: int, with_map: bool) -> bytes:
    binary = jit_compile(make_stress_program(size, seed=size, with_map=with_map))
    return binary.link(lambda reloc: ADDRESSES[reloc.symbol]).code


def _cache() -> CacheModel:
    memory = PhysicalMemory(1 << 16)
    memory.write(memory.base, bytes(range(256)) * 256)
    return CacheModel(_sim(), memory, cpki=5.0, seed=7)


def _program(alu_blocks: int) -> list:
    """``alu_blocks`` rounds of the stress generator's arithmetic and a
    both-ways branch, on a value loaded once."""
    asm = Asm().mov_reg(op.R6, op.R1).ldx_b(op.R7, op.R6, 3).mov_imm(op.R0, 0)
    for i in range(alu_blocks):
        asm.alu64_reg(op.BPF_ADD, op.R7, op.R6).alu64_imm(op.BPF_XOR, op.R7, 0x5A5A + i)
        asm.alu64_imm(op.BPF_MUL, op.R7, 7).alu64_imm(op.BPF_RSH, op.R7, 1)
        asm.alu32_imm(op.BPF_AND, op.R7, 0x7FFF_FFFF).alu64_imm(op.BPF_LSH, op.R7, 2)
        asm.jmp_imm(op.BPF_JSGT, op.R7, i, f"over{i}").alu64_imm(op.BPF_SUB, op.R7, 1)
        asm.label(f"over{i}").jmp_reg(op.BPF_JEQ, op.R7, op.R6, f"skip{i}")
        asm.mov_reg(op.R8, op.R7).label(f"skip{i}")
    return asm.mov_reg(op.R0, op.R7).exit_().build()


@scenario("first-exec")
def _first_exec():
    """Decode relocation-free and two-relocation images at three sizes;
    read a warm cache at four lengths and a flushed one at three; run
    1 and 400 blocks of ALU and jump instructions."""
    rows = {}
    for size in SIZES:
        for kind, with_map in (("plain", False), ("map", True)):
            image = _image(size, with_map)
            measure(rows, f"decode[{kind},{size}]", decode_image, image, helper_at, map_slot_at)
    cache_ = _cache()
    base = cache_.memory.base
    cache_.cpu_read(base, 1 << 15)
    for length in READS:
        measure(rows, f"read hit[{length}]", cache_.cpu_read, base + 5, length)
    cache_ = _cache()
    cache_.cpu_read(base, 64)
    measure(rows, "read hit[line]", cache_.cpu_read, base, 64)
    for length in MISSES:
        cache_.flush_all()
        measure(rows, f"read miss[{length}]", cache_.cpu_read, base + 5, length)
        rows[f"lines[{length}]"] = (5 + length + cache_.line_bytes - 1) // cache_.line_bytes
    for blocks in (1, 400):
        measure(rows, f"run[{blocks} blocks]", Interpreter().run, _program(blocks), bytes(range(64)))
    rows["insns executed[400 blocks]"] = Interpreter().run(_program(400), bytes(range(64))).insns_executed
    return rows


def _py(rows, *names) -> list:
    return [py(rows["~" + name]) for name in names]


def _decode(rows, kind) -> set:
    return set(_py(rows, *(f"decode[{kind},{size}]" for size in SIZES)))


def _decode_per_relocation(rows) -> bool:
    """Each of the two relocations costs its operand fetch and its
    reverse-GOT look-up, whatever the image size."""
    relocs = {"ebpf/jit._operand": 2, "cost.helper_at": 1, "cost.map_slot_at": 1}
    return _decode(rows, "map") == {max(_decode(rows, "plain")) + 4} and all(
        rows[f"decode[map,{size}]"].get(name) == n for size in SIZES for name, n in relocs.items())


def _misses_fill_lines(rows) -> bool:
    hit, per_fill = rows["~read hit[line]"], set()
    for length in MISSES:
        miss, lines = rows[f"~read miss[{length}]"], rows[f"lines[{length}]"]
        draws = sum(n for name, n in miss.items() if name.startswith("~random.expovariate@"))
        if miss["mem/memory.PhysicalMemory.read"] != draws or draws != lines or ours(
                miss, "mem/cache.") != ours(hit, "mem/cache."):
            return False
        per_fill.add((py(miss) - py(hit)) / lines)
    return len(per_fill) == 1 and per_fill.pop() <= 5


# -- the kernel ----------------------------------------------------------------------

def _sleeper(_cpu, sleeps):
    for _ in range(sleeps):
        yield 1.0


def _sliced(cpu, slices):
    yield from cpu.run(float(slices), quantum_us=1.0)


def _kernel_run(body, n) -> Counter:
    sim = _sim()
    sim.spawn(body(CPU(sim, cores=2), n))
    counts = profile(sim.run)
    assert not sim.failed_processes
    return counts


@scenario("kernel")
def _kernel():
    """100 more bare-number sleeps, and 100 more uncontended CPU slices;
    a gate, a spawn and a join at one instant; 10 spawns; one 3-MTU WR
    chain through the RNIC."""
    rows = {}
    for name, body in (("sleeps", _sleeper), ("slices", _sliced)):
        extra = _kernel_run(body, 110) - _kernel_run(body, 10)
        rows[f"{name}[110]-{name}[10]"], rows[f"~{name}"] = ours(extra), extra
    sim = _sim()
    gate, steps = sim.event(), []

    def child():
        steps.append("child")
        return "joined"
        yield

    def parent():
        steps.append((yield gate))
        steps.append((yield sim.spawn(child())))

    def same_instant():
        sim.spawn(parent())
        sim.run()
        gate.succeed("opened")
        sim.run()

    rows["~same instant"] = profile(same_instant)
    rows["same instant: steps, events"] = (tuple(steps), sim.processed_events)
    sim = _sim()

    def ten_spawns():
        for _ in range(10):
            sim.spawn(_sleeper(None, 1))
        sim.run()

    measure(rows, "10 spawns", ten_spawns)
    rows["10 spawns events"] = sim.processed_events
    bed, length, done = _bed(), 3 * RNIC_MTU_BYTES, []
    sync = bed.codeflow.sync
    chain = [WorkRequest(
        opcode=WrOpcode.RDMA_WRITE, rkey=sync.rkey,
        remote_addr=bed.codeflow.code_allocator.alloc(length, align=64),
        data=bytes(index % 255 + 1 for index in range(length)),
    )]
    bed.sim.run()

    def post():
        done.append((yield sync.qp.post_send_batch(chain)))

    measure(rows, "3-MTU chain", bed.sim.run_process, post())
    rows["3-MTU chain status"] = done[0].status.name
    return rows


def _no_heap(rows) -> bool:
    return not [k for k in rows["~same instant"] if k.startswith(("~heappush()", "~heappop()"))]


# -- telemetry: it costs what moved ---------------------------------------------------

def _checkpoint(rows, idle_series: int) -> None:
    """One ``note_metrics`` with three counters moved since the last and
    ``idle_series`` that did not: its calls, the sizes ``sorted`` saw
    and the entries it pushed."""
    hub = Telemetry(_sim())
    movers = [hub.counter("rdx.moved", leg=index) for index in range(3)]
    for index in range(idle_series):
        hub.counter("rdx.idle", series=index).inc()
        hub.gauge("rdx.level", series=index).set(1.0)
    for counter in movers:
        counter.inc()
    assert hub.flight.note_metrics(hub.registry) == 3 + idle_series
    for counter in movers:
        counter.inc(2)
    sizes = []

    def counted(iterable, **kwargs):
        items = list(iterable)
        sizes.append(len(items))
        return sorted(items, **kwargs)

    # A module global shadows the builtin for ``repro.obs.metrics``.
    with patched(metrics, "sorted", lambda _: counted):
        measure(rows, f"checkpoint[{idle_series}]", hub.flight.note_metrics, hub.registry)
    rows[f"checkpoint[{idle_series}]: sorted, entries"] = (tuple(sizes), tuple(
        (tuple(e["labels"].items()), e["delta"], e["total"]) for e in list(hub.flight.entries)[-3:]
    ))


def _service(bed, workers=2):
    service = DeployService(bed.control, classes=default_classes(queue_depth=32), workers=workers)
    for tenant, cls in (("pager", "hotpatch"), ("dev", "standard"), ("whale", "bulk")):
        service.register(tenant, cls)
    return service


def _run(bed, service, *steps):
    """Run a script to completion and wait for every ticket: a
    ``(tenant, program, hook)`` step submits a ticket on
    ``bed.codeflow``, a number sleeps, None waits for every ticket so
    far, and a callable is polled every 0.5 us until it holds.  Returns
    the tickets."""
    def body():
        tickets = []
        for step in steps + (None,):
            if isinstance(step, tuple):
                tickets.append(service.submit(step[0], bed.codeflow, *step[1:]))
            elif step is None:
                for ticket in tickets:
                    yield ticket.done
            elif callable(step):
                while not step():
                    yield 0.5
            else:
                yield step
        return tickets

    return bed.sim.run_process(body())


STORE = "mem/cache.CacheModel.cpu_write"


@scenario("telemetry")
def _telemetry():
    """A flight-recorder checkpoint beside 10 and 1,000 idle series; the
    serve segment's depth gauges; 10 more warm tickets; an 8-byte store
    to an uncached line, with and without other lines cached."""
    rows = {}
    for idle in (10, 1_000):
        _checkpoint(rows, idle)
    bed = _bed()
    service = _service(bed)
    service.start()
    seq = service.segment.snapshot_local().seq
    measure(rows, "depth gauges", service._note_depth)
    rows["depth gauges seq"] = service.segment.snapshot_local().seq - seq
    warm = ("pager", make_stress_program(120, seed=1), "ingress")
    _run(bed, service, warm, None, warm)  # cold, then admitted: warm from here
    few = profile(_run, bed, service, *[warm, None] * 2)
    rows["10 tickets"] = ours(profile(_run, bed, service, *[warm, None] * 12) - few, "mem/", "obs/")
    snapshot = service.segment.snapshot_local()
    rows["segment: consistent, completed, count, queued, inflight"] = (snapshot.consistent, *(
        snapshot.values[key] for key in ("deploys.completed", "deploy_us.count", "queued", "inflight")))
    word = (7).to_bytes(8, "little")
    for cached in (False, True):
        cache_ = CacheModel(_sim(), memory := PhysicalMemory(1 << 16), seed=0)
        if cached:
            cache_.cpu_read(memory.base + 4096, 256)
        counts = profile(cache_.cpu_write, memory.base + 264, word)
        rows[f"word store[other lines cached={cached}]"] = (
            ours(counts, "mem/"), memory.read(memory.base + 264, 8) == word)
    return rows


def _ticket_stores(rows) -> bool:
    stores, names = rows["10 tickets"].get(STORE, 0), {k.rsplit(".", 1)[-1] for k in rows["10 tickets"]}
    return stores % 10 == 0 and stores // 10 <= 28 and not {"offset_of", "encode"} & names


# -- the one-sided op path ------------------------------------------------------------

def _chain(bed, wrs):
    word = bed.codeflow.manifest.code_addr
    return [(word + 64 * index, (index + 1).to_bytes(8, "little")) for index in range(wrs)]


OUTSIDE_SIM = ("sim/",)
UNRECORDED = (
    "._hb_note", "._trace_event", ".telemetry_of", "net/fabric.Fabric.host",
    "net/fabric.Fabric.reachable",
)
VERBS = {"write": "write[2 MTU]", "install": "install[3]", "read": "read[2 MTU]", "cas": "cas",
         "fetch_add": "fetch_add"}


@scenario("transport")
def _transport():
    """Each RemoteSync verb once, outside ``repro.sim``: an 8-byte
    WRITE, installs of 1, 3 and 11 chained WRs, a 2-MTU WRITE and READ,
    a CAS and a FETCH_ADD; a metric look-up that hits, bare or
    labelled."""
    rows = {}
    bed = _bed()
    manifest, sandbox, sync = bed.codeflow.manifest, bed.sandbox, bed.codeflow.sync
    big = bytes(range(256)) * (RNIC_MTU_BYTES // 128)  # two MTUs
    for row, verb, args in (
        ("write[8 B]", sync.write, (manifest.scratchpad_addr, (7).to_bytes(8, "little"))),
        ("install[1]", sync.install, (_chain(bed, 1), None, 0, 0, [])),
        ("install[11]", sync.install, (_chain(bed, 11), None, 0, 0, [])),
        ("install[3]", sync.install, (_chain(bed, 3), None, 0, 0, [])),
        ("write[2 MTU]", sync.write, (manifest.code_addr, big)),
        ("read[2 MTU]", sync.read, (manifest.code_addr, len(big))),
        ("cas", sync.cas, (sandbox.bubble_addr, 0, 1)),
        ("fetch_add", sync.fetch_add, (sandbox.bubble_addr, 2)),
    ):
        bed.sim.run()
        rows[row] = ours(counts := profile(bed.sim.run_process, verb(*args)), skip=OUTSIDE_SIM)
        rows["~" + row] = counts
    rows["install[11]-install[1]"] = ours(rows["~install[11]"] - rows["~install[1]"], skip=OUTSIDE_SIM)
    rows["write[8 B] landed"] = bed.host.memory.read(manifest.scratchpad_addr, 8) == (7).to_bytes(8, "little")
    for kind in ("counter", "histogram", "gauge"):
        lookup = getattr(Telemetry(_sim()), kind)
        for how, labels in (("bare", {}), ("labelled", {"target": "node3", "op": "write", "leg": 7})):
            series = lookup(f"rdx.{kind}.{how}", **labels)
            call = partial(lookup, f"rdx.{kind}.{how}", **dict(reversed(labels.items())))
            measure(rows, f"{kind} hit[{how}]", call)
            rows[f"{kind} hit[{how}] is its series"] = call() is series
    return rows


def _chain_bounded(rows) -> bool:
    extra = rows["~install[11]"] - rows["~install[1]"]
    return py(extra, OUTSIDE_SIM) <= 10 * 10 and extra["mem/cache.CacheModel.dma_write"] == 10


def _unrecorded(rows, verb) -> bool:
    return not any(k.startswith("~enum.") or k.endswith(UNRECORDED) or k.startswith(UNRECORDED[3:])
                   for k in rows["~" + VERBS[verb]])


# -- the pipelined install --------------------------------------------------------------

def _inject(bed, program, **kwargs):
    return bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress", **kwargs))


WQE = ("wqe", "cc-doorbell")


@scenario("install")
def _install():
    """RNIC submissions of a warm deploy, rollback and detach, and of a
    full image into a reused extent; when a warm ``deploy_prog`` spawns
    its fence READ, prep and chain; a relayed tree leg's stage."""
    rows = {}
    for step in ("deploy", "rollback", "detach"):
        bed = _bed()
        run, program = bed.sim.run_process, make_stress_program(818, seed=1, name="app")
        first = _inject(bed, program)
        if step == "rollback":
            _inject(bed, make_stress_program(818, seed=2, name="app"))
        with spawns(bed.sim) as log:
            report = {
                "deploy": lambda: _inject(bed, program),
                "rollback": lambda: run(bed.codeflow.rollback("app")),
                "detach": lambda: run(bed.codeflow.detach("app")),
            }[step]()
        rows[f"warm {step}"] = kinds(log, WQE)
        if step == "deploy":
            rows["warm deploy commit, cc us"] = (report.commit_us, report.cc_us)
    flushes = bed.codeflow.sync.cc_count  # the detach freed the extent
    with spawns(bed.sim) as log:
        report = _inject(bed, make_stress_program(818, seed=2, name="app"))
    rows["reused extent"] = kinds(log, WQE)
    rows["reused extent: reused, flushes, cc us, bytes"] = (
        report.code_addr == first.code_addr, bed.codeflow.sync.cc_count - flushes,
        report.cc_us, report.bytes_moved)
    bed = _bed()
    program = make_stress_program(818, seed=1, name="app")
    _inject(bed, program)  # then link again: a link-stage hit, no rendezvous
    entry = bed.sim.run_process(bed.control.prepare_for(bed.codeflow, program))
    linked = bed.sim.run_process(bed.codeflow.link_code(entry.binary))
    with spawns(bed.sim) as log:
        report = bed.sim.run_process(bed.codeflow.deploy_prog(program, linked, "ingress"))
    rows["warm deploy_prog spawns"] = kinds(log)
    first_at = {}
    for name, at in log:
        first_at.setdefault(name, _us(at - report.started_us))
    rows["warm deploy_prog first spawned at"] = dict(sorted(first_at.items()))
    rows["warm deploy_prog dispatch, write, cc, unattributed us"] = tuple(map(_us, (
        report.dispatch_us, report.write_us, report.cc_us,
        report.total_us - report.dispatch_us - report.write_us - report.cc_us)))
    # Eight cores leave seven compile slots for the six charges of three
    # cold programs, so the relayed leg stages under a pending verdict.
    # d=2 over three targets: position 2 is relayed through position 0.
    bed = make_testbed(n_hosts=3, cores_per_host=8, hooks=("ingress",), with_agents=False,
                       config=replace(TREE, tree_degree=2))
    relay_cpu = bed.codeflows[0].sandbox.host.cpu
    busy = relay_cpu.busy_us
    programs = [make_stress_program(300, seed=i + 1, name=f"app{i}") for i in range(3)]
    with spawns(bed.sim) as log:
        relayed = bed.sim.run_process(CodeFlowGroup(bed.codeflows).broadcast(programs, "ingress")).reports[2]
    started = relayed.started_us
    rows["relayed leg: dispatches, fence and prep at its start, relay CPU us, chain after prep"] = (
        kinds(log).get("dispatch", 0), ("dispatch", started) in log and ("wqe:read", started) in log,
        _us(relay_cpu.busy_us - busy),
        any(name == "wqe-chain:2" and abs(at - started - relayed.dispatch_us) < 1e-9 for name, at in log))
    return rows


def _fence_under_dispatch(rows) -> bool:
    """The READ and the WQE prep spawn as the dispatch starts; the
    chain goes out the instant the prep ends."""
    at = rows["warm deploy_prog first spawned at"]
    dispatch_us = rows["warm deploy_prog dispatch, write, cc, unattributed us"][0]
    return (rows["warm deploy_prog spawns"].get("dispatch") == 1
            and at.get("wqe:read") == at.get("dispatch") == 0.0
            and at.get("wqe-chain:4") == dispatch_us == FAST_US)


@scenario("install.xstate")
def _install_xstate():
    """The WRs of one xstate deploy: header + image, the meta slot's
    commit CAS and the header span's doorbell."""
    bed = _bed()
    with posts(bed) as log:
        bed.sim.run_process(bed.codeflow.deploy_xstate(XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)))
    return {"xstate deploy WRs": dict(sorted(Counter(kind for _, _, kind, _, _ in log).items()))}


def _base(seed=None):
    program = make_stress_program(400, seed=7, name="app")
    return program if seed is None else make_stress_variant(program, seed, name="app")


def _rollback(bed):
    bed.sim.run_process(bed.codeflow.rollback("app"))


def _after_reboot(bed):
    bed.sandbox.warm_reboot()
    bed.codeflow.reset_after_reboot()
    bed.sim.run_process(bed.codeflow.stamp_epoch(bed.control.epoch))


def _after_adopt(bed):
    """The next deploy goes through the successor plane that adopted the target."""
    plane, codeflows = bed.sim.run_process(
        resume_control_plane(bed.cluster.control_host, bed.control.journal, bed.sandboxes))
    bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
    assert codeflows[0].deployed["app"].layout is None
    bed.control, bed.codeflows[0] = plane, codeflows[0]


def _moved_map(bed):
    """``stress_map`` comes back one chunk deeper, behind a decoy that
    took its old chunk: the same program now links at another layout."""
    codeflow, run = bed.codeflow, bed.sim.run_process
    state = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
    handle = run(codeflow.deploy_xstate(state))
    _inject(bed, _mapper())
    run(codeflow.destroy_xstate(handle))
    run(codeflow.deploy_xstate(XStateSpec("decoy", MapType.ARRAY, 4, 8, 4)))
    assert run(codeflow.deploy_xstate(state)).data_addr != handle.data_addr


def _mapper():
    return make_stress_program(400, seed=5, with_map=True, name="mapper")


#: Case -> (arm, the deploys before, what runs between, the deploy under test, whether it pays).
RENDEZVOUS = {
    "delta-patch": (BASE, [None], None, 5, False),
    "cold-onto-a-same-layout-owner": (BASE, [None], None, "other", False),
    "first-deploy": (BASE, [], None, None, True),
    "after-rollback": (BASE, [None, 5], _rollback, 6, True),
    "after-reboot": (BASE, [None], _after_reboot, 5, True),
    "after-adopt": (BASE, [None], _after_adopt, 5, True),
    "after-a-moved-map": (BASE, [], _moved_map, "mapper", True),
    "serial": (replace(BASE, pipelined_deploy=False), [None], None, 5, True),
}


@scenario("install.rendezvous")
def _rendezvous():
    """Per case: the link-cache hits, and what the deploy under test's
    dispatch paid beyond the schedule's WQE prep (``_base`` variants
    by seed; ``other`` a 300-insn cold program, ``mapper`` a map user)."""
    rows = {}
    programs = {"other": lambda: make_stress_program(300, seed=2, name="other"), "mapper": _mapper}
    for case, (config, before, between, under_test, _paid) in RENDEZVOUS.items():
        bed = _bed(config)
        for seed in before:
            _inject(bed, _base(seed))
        if between is not None:
            between(bed)
        report = _inject(bed, programs[under_test]() if under_test in programs else _base(under_test))
        paid_us = report.dispatch_us - bed.codeflow.schedule.dispatch_us
        rows[case] = (bed.control.link_cache_hits, _us(paid_us))
    return rows


# -- where a broadcast's bytes move ---------------------------------------------------------

def _traffic(config, n):
    """One broadcast of one program over ``n`` targets: what its QPs
    carry up to the journal's ``bubbled`` phase and around the verdict
    (the end of the verifier's charge); each target's raise landing,
    flip, hook-line flush and lower; what the bubble window carries."""
    bed = make_testbed(
        n_hosts=n, cores_per_host=2, hooks=("ingress",), with_agents=False, seed=3, config=config)
    sim = bed.sim
    routes = {id(codeflow.sync): "control" for codeflow in bed.codeflows}
    flags = {codeflow.sandbox.bubble_addr for codeflow in bed.codeflows}
    hooks = {codeflow._hook_addr("ingress") for codeflow in bed.codeflows}
    program, bubbled = make_stress_program(150, seed=1, name="rc"), []

    def phasing(record):
        def spy(txn, name, *args, **kwargs):
            if name == "bubbled":  # how many reads and installs had started
                bubbled.extend((len(reads), len(installs)))
            return record(txn, name, *args, **kwargs)
        return spy

    with ExitStack() as stack:
        log = stack.enter_context(posts(bed))
        charges = stack.enter_context(intervals(sim, RdxControlPlane, "_charge"))
        reads, installs, flushes = (
            stack.enter_context(intervals(sim, RemoteSync, name))
            for name in ("read", "install", "flush_chained"))
        stack.enter_context(patched(bed.control.journal, "phase", phasing))
        result = sim.run_process(CodeFlowGroup(bed.codeflows).broadcast([program] * n, "ingress"))
        sim.run()  # a verifier's charge that outlived the broadcast ends
    assert all(outcome.ok for outcome in result.outcomes)
    stage, chains, raised, settled = Counter(), [], {}, {}
    for _, _, (sync, addr, _), _ in reads[:bubbled[0]]:
        stage[routes.get(id(sync), "relay"), "epoch-read"] += addr == sync.sandbox.epoch_addr
    for index, (start, _, (sync, ops, qword, *_), kwargs) in enumerate(installs):
        tail = kwargs.get("tail", ())
        if qword is None and ops:
            chains.append(start)
            stage[routes.get(id(sync), "relay"), "stage-chain"] += index < bubbled[1]
        elif index < bubbled[1] and tail and tail[0][0] in flags:
            stage[routes.get(id(sync), "relay"), "raise-chain"] += 1
    for _, end, (sync, spans, *_), kwargs in sorted(flushes, key=lambda entry: entry[1]):
        if kwargs.get("waited", True) and spans[:1] and spans[0][0] in flags:
            raised[sync.sandbox.host.name] = end
        if spans and spans[-1][0] in hooks:
            settled[sync.sandbox.host.name] = end
    verdict = max(end for _, end, args, _ in charges if args[1] == "validate")
    flipped = {target: at for at, _, kind, target, _ in log if kind == "cas"}
    lowered = {target: at for at, _, kind, target, wr in log if kind == "flag" and not any(wr.data)}

    def around(kind):
        times = chains if kind == "stage-chain" else [at for at, _, k, _, _ in log if k == kind]
        return sum(at < verdict for at in times), sum(at >= verdict for at in times)

    def own(times, marks):
        return sum(at < marks[target] for target, at in times.items() if target in marks)

    def last(times, marks):
        return sum(at < max(marks.values(), default=0.0) for at in times.values())

    window = Counter((route, kind) for at, route, kind, _, _ in log
                     if result.bubble_raised_us <= at <= result.bubble_lowered_us)
    return {
        "stage": dict(sorted((+stage).items())),
        "posted before, after the verdict": {kind: around(kind) for kind in ("stage-chain", "cas", "flag")},
        "targets raised, flipped, settled, lowered": tuple(map(len, (raised, flipped, settled, lowered))),
        "flips before their own raise landed": own(flipped, raised),
        "flips before the last raise landed": last(flipped, raised),
        "lowers before the last flip": last(lowered, flipped),
        "lowers before their own hook-line flush": own(lowered, settled),
        "lowers before the last hook-line flush": last(lowered, settled),
        "window": dict(sorted(window.items())),
        "window, hold us": (_us(result.bubble_window_us), _us(result.bubble_hold_us)),
        "hold runs from the first raise": (
            result.started_us < result.first_raised_us <= result.bubble_raised_us
            and abs(result.bubble_hold_us - (result.bubble_lowered_us - result.first_raised_us)) < 1e-9),
    }


scenario("stage.tree64")(partial(_traffic, TREE, 64))
scenario("stage.flat16")(partial(_traffic, BASE, 16))
scenario("stage.serial4")(partial(_traffic, replace(BASE, pipelined_deploy=False), 4))


@scenario("stage.tree256")
def _registry_hit():
    """Tree N=256, degree 4, one already-verified program twice: the
    walks each broadcast takes, its total, hold and window, and the
    relay QPs the group has built."""
    bed = make_testbed(
        n_hosts=256, cores_per_host=4, hooks=("ingress",), with_agents=False, seed=1, config=TREE)
    group = CodeFlowGroup(bed.codeflows)
    program = make_stress_program(402, seed=1, name="hit")
    rows = {}
    for run in ("first", "second"):
        with intervals(bed.sim, CodeFlowGroup, "_walk") as walks:
            result = bed.sim.run_process(group.broadcast([program] * 256, "ingress", verify=False))
        rows[f"{run}: walks, total, hold, window us, relay QPs"] = (
            tuple(args[3] for _, _, args, _ in walks), _us(result.total_us), _us(result.bubble_hold_us),
            _us(result.bubble_window_us), len(group._relay_syncs))
    return rows


# -- serve: a ticket's lock and worker guard the install, not the compile -------------------

def _serve_bed(workers=2, config=SERVE, n=1, *also):
    """A service whose ``hot`` hotpatch (and ``also``) is prewarmed, started."""
    bed = _bed(config, n)
    service, hot = _service(bed, workers), make_stress_program(60, seed=6, name="hot")
    for program in (hot, *also):
        assert bed.sim.run_process(service.warm_pool.prewarm(bed.codeflow, program))
    service.start()
    return bed, service, hot


def _cold(seed, name=None):
    return make_stress_program(300, seed=seed, name=name or f"cold{seed}")


def _behind_a_compile(workers):
    """An idle hotpatch, then a cold ticket and, 50 us into its compile,
    the same pinned hotpatch; the validations done by then."""
    bed, service, hot = _serve_bed(workers)
    done = []
    alone, compiling, patch = _run(
        bed, service, ("pager", hot, "ingress"), None, ("dev", _cold(3, "cold"), "egress"), 50.0,
        lambda: done.append(bed.control.validations_run) or True, ("pager", hot, "ingress"))
    return (alone.report.warm and patch.report.warm and compiling.completed, done[0], _us(alone.service_us),
            _us(patch.service_us), patch.queue_wait_us, patch.finished_us < compiling.finished_us)


def _cold_pair(flush_delay_us):
    """Two cold tickets on one target, two workers: the compiles, the
    lock's holds (from its link to its ``deploy_prog``'s end, the CAS's
    answer) against the flips, and the second's first post against the
    first's settle record."""
    bed = _bed(SERVE)
    codeflow, sim, service, recorded = bed.codeflow, bed.sim, _service(bed), []

    def recording(bookkeep):
        def spy(*args):
            recorded.append(sim.now)
            bookkeep(*args)
        return spy

    def slowed(flush):
        def spy(spans, waited=True, chained=True):
            yield flush_delay_us  # as a fuzzed delay makes it
            yield from flush(spans, waited, chained)
        return spy

    with ExitStack() as stack:
        prepares, links, deploys, flips, installs = (
            stack.enter_context(intervals(sim, owner, name)) for owner, name in (
                (bed.control, "prepare_for"), (bed.control, "_linked"), (codeflow, "deploy_prog"),
                (codeflow, "flip_prog"), (codeflow.sync, "install")))
        stack.enter_context(patched(codeflow, "_bookkeep", recording))
        if flush_delay_us:
            stack.enter_context(patched(codeflow.sync, "flush_chained", slowed))
        service.start()
        tickets = _run(bed, service, ("dev", _cold(3), "ingress"), ("dev", _cold(4), "egress"))
    assert all(ticket.completed for ticket in tickets) and len(recorded) == len(installs) == 2
    # Each install re-enters prepare_for for a registry hit, at zero length.
    compiles = [(start, end) for start, end, _, _ in prepares if end > start]
    first, second = held = list(zip(sorted(s for s, *_ in links), sorted(e for _, e, *_ in deploys)))
    return (
        len(compiles), bed.control.compiles_run,
        max(start for start, _ in compiles) < min(end for _, end in compiles),
        first[1] <= second[0], [end for _, end in held] == sorted(end for _, end, *_ in flips),
        second[0] < recorded[0] <= installs[1][0],
        tuple((_us(a), _us(b)) for a, b in held),
    )


def _tenant_counts(bed, *tenants):
    return {t: bed.obs.histogram("rdx.tenant.install_visible_us", tenant=t).count for t in tenants}


@scenario("serve")
def _serve():
    """A hotpatch behind a cold compile (two workers, one); under three
    compiles; two cold tickets installing (a settle on time, 10 us
    late); a hotpatch queued behind three bulk tickets."""
    rows = {}
    for workers in (2, 1):
        rows[f"hotpatch behind a compile[{workers} workers]: warm, validated at 50 us, "
             "alone, patch us, queued us, first"] = _behind_a_compile(workers)
    bed, service, hot = _serve_bed()
    cpu, busy = bed.control.host.cpu, []
    *compiling, patch = _run(bed, service, *(("dev", _cold(seed), "egress") for seed in (3, 4, 5)), 50.0,
                             lambda: busy.append(cpu.in_use) or True, ("pager", hot, "ingress"))
    rows["hotpatch under three compiles: cores busy, cores, warm, dispatch us, first"] = (
        busy[0], cpu.cores, patch.report.warm and all(t.completed for t in compiling),
        _us(patch.report.dispatch_us), patch.finished_us < min(t.finished_us for t in compiling))
    for delay in (0.0, 10.0):
        rows[f"cold pair[settle +{delay} us]: compiles, runs, overlap, one at a time, "
             "held to the CAS, next waits for the record, holds"] = _cold_pair(delay)
    bed, service, hot = _serve_bed(workers=4)
    lock = service._target_lock(bed.codeflow.sandbox.name)
    bulk = ("whale", make_stress_program(2_000, seed=4, name="bulk"), "egress")
    # One compile for the three; then one installs, two queue.
    *bulks, patch = _run(
        bed, service, bulk, bulk, bulk, lambda: lock.queue_len == 2, ("pager", hot, "ingress"))
    rows["hotpatch behind bulk: done, coalesced, first of the queued"] = (
        patch.completed and all(t.completed for t in bulks), bed.control.prepare_coalesced,
        patch.finished_us < sorted(t.finished_us for t in bulks)[1])
    return rows


@scenario("serve.records")
def _serve_records():
    """A cold install at its owner's layout with a hotpatch queued
    behind it; two tenants interleaved on one target; a settle under
    the next grant; a tenant's ticket before an unlocked broadcast;
    back-to-back hotpatches under the race checker."""
    rows = {}
    bed, service, hot = _serve_bed()
    codeflow, granted = bed.codeflow, {}

    def linking(link_code):
        def spy(binary, parent_span=None):
            # Only a cold ticket links, the instant its lock is granted;
            # the second one's hotpatch queues behind it.
            if "owner" in granted:
                granted["cold"] = bed.sim.now
                granted["patch"] = service.submit("pager", codeflow, hot, "ingress")
            return (yield from link_code(binary, parent_span))
        return spy

    with patched(codeflow, "link_code", linking):
        alone, _owner, cold = _run(
            bed, service, ("pager", hot, "ingress"), None, ("dev", _cold(3, "cold"), "egress"), None,
            lambda: granted.setdefault("owner", True), ("dev", _cold(4, "cold"), "egress"))
        bed.sim.run()
    patch, report = granted["patch"], cold.report
    # Held for link + dispatch + install, to the commit CAS's answer.
    held = report.link_us + report.dispatch_us + report.write_us
    rows["same-layout cold: warm, mode, dispatch us, patch past the hold us, patch over idle us"] = (
        report.warm, report.mode, _us(report.dispatch_us),
        _us(patch.finished_us - granted["cold"] - held - patch.report.total_us),
        _us(patch.service_us - alone.service_us))
    bed, service, hot = _serve_bed()
    compiling, patch = _run(
        bed, service, ("dev", _cold(3, "cold"), "egress"), 50.0, ("pager", hot, "ingress"))
    rows["two tenants: pager first, installs each"] = (
        patch.finished_us < compiling.finished_us, _tenant_counts(bed, "dev", "pager"))
    bed = _bed(SERVE)
    codeflow, service, layouts, linked = bed.codeflow, _service(bed), {}, []
    # Two layouts: a helper call resolves through the GOT, the stress
    # program resolves nothing.
    helper = BpfProgram(Asm().call(7).mov_imm(op.R0, 5).exit_().build(), name="helper")
    for program in (helper, make_stress_program(60, seed=6, name="hot")):
        assert bed.sim.run_process(service.warm_pool.prewarm(codeflow, program))
        layouts[codeflow._last_link_key[1:]] = program.name

    def pinning(link_pinned):
        def spy(pin):
            settling = codeflow._settling
            linked.append((layouts.get(pin.link_key[1:]), settling is not None and settling.is_alive))
            return link_pinned(pin)
        return spy

    with patched(codeflow, "link_pinned", pinning):
        service.start()
        tickets = _run(bed, service, ("dev", helper, "egress"), ("pager", program, "ingress"))
    rows["settle under the next grant: warm, (layout, under a settle), own layouts, installs"] = (
        all(t.completed and t.report.warm for t in tickets), tuple(linked),
        all(layouts.get(codeflow.deployed[name].layout) == name for name in ("helper", "hot")),
        _tenant_counts(bed, "dev", "pager"))
    bed, service, hot = _serve_bed(workers=1, n=2)
    _run(bed, service, ("pager", hot, "ingress"))
    legs = [make_stress_program(60, seed=8 + i, name=f"leg{i}") for i in range(2)]
    bed.sim.run_process(CodeFlowGroup(bed.codeflows).broadcast(legs, "egress"))
    rows["ticket then unlocked broadcast: installs"] = _tenant_counts(bed, "pager", "")
    second = make_stress_program(60, seed=7, name="hot2")
    bed, service, first = _serve_bed(2, replace(SERVE, hb_check=True), 1, second)
    tickets = _run(bed, service, ("pager", first, "ingress"), ("pager", second, "ingress"))
    result, _ = bed.sandbox.run_hook("ingress", bytes(256))
    races = checker.check_sim(bed.sim, check_unflushed_exec=True)
    rows["back-to-back hotpatches: second stages under the first's flush, runs, race-free"] = (
        tickets[1].report.started_us < tickets[0].finished_us,
        result.r0 == Interpreter().run(second.insns, bytes(256)).r0, bool(races.events) and races.clean)
    return rows


# -- the claims -------------------------------------------------------------------------------

def _row(rows, prefix):
    """The one row of ``rows`` whose name starts with ``prefix``."""
    (value,) = [value for name, value in rows.items() if name.startswith(prefix)]
    return value


def _no_body_byte(rows) -> bool:
    return not [key for key in rows["window"] if key[1] == "write"]


def _behind_a_compile_claim(rows, workers) -> bool:
    """The hotpatch pays what it pays on an idle target (~8.3 us), not
    the ~300 us left of the compile, and neither queues nor trails it."""
    warm, _, alone, patch, queued, first = _row(rows, f"hotpatch behind a compile[{workers}")
    return warm and alone == patch < 20.0 and queued == 0.0 and first


#: The RNIC submissions of each warm commit: its fence READ and one chain.
WARM = {"deploy": {"wqe-chain:4": 1, "wqe:read": 1}, "rollback": {"wqe-chain:2": 1, "wqe:read": 1},
        "detach": {"wqe-chain:2": 1, "wqe:read": 1, "wqe:write": 1}}


#: Claim -> (scenario, predicate on its live rows): the bounds on totals
#: no row pins, and the orderings and savings a regenerated row could
#: otherwise absorb.
CLAIMS = {
    "verify-flat-in-length": (
        "compile", lambda r: _flat(r, "verify[{}]") and r["states visited[1300]"] == 1300),
    "verify-constant-per-branch": ("compile", _per_diamond),
    "jit-flat-in-length": ("compile", lambda r: _flat(r, "jit[{}]")),
    **{f"jit-bounded-per-relocation[{arch}]": ("compile", partial(_per_relocation, arch=arch))
       for arch in ("arm64", "x86_64")},
    "decode-flat-in-the-image": ("first-exec", lambda r: len(p := _decode(r, "plain")) == 1 and max(p) <= 4),
    "decode-bounded-per-relocation": ("first-exec", _decode_per_relocation),
    "read-hit-flat-in-length": (
        "first-exec", lambda r: len(set(_py(r, *(f"read hit[{n}]" for n in READS)))) == 1),
    "read-miss-only-fills-lines": ("first-exec", _misses_fill_lines),
    "alu-and-jumps-make-no-call": (
        "first-exec", lambda r: _py(r, "run[1 blocks]") == _py(r, "run[400 blocks]")),
    "sleep-costs-one-resume": ("kernel", lambda r: py(r["~sleeps"]) == 200),
    "slice-costs-one-resume": ("kernel", lambda r: py(r["~slices"]) == 300),
    "same-instant-makes-no-heap-call": ("kernel", _no_heap),
    "spawn-allocates-no-bootstrap-event": ("kernel", lambda r: (
        r["10 spawns events"] == 30 and "sim/core._Poke.__init__" not in r["10 spawns"])),
    "wr-chain-constructs-no-timeout": ("kernel", lambda r: (  # its start, the grant, six sleeps
        r["3-MTU chain"]["rdma/rnic.Rnic._process_batch"] == 8 and "sim/core.Timeout.__init__" not in r["3-MTU chain"])),
    "checkpoint-costs-what-moved": (
        "telemetry", lambda r: r["~checkpoint[10]"] == r["~checkpoint[1000]"]),
    "depth-gauges-share-one-bracket": (
        "telemetry", lambda r: r["depth gauges"].get(STORE, 0) <= 4),
    "ticket-stores-at-most-28-words": ("telemetry", _ticket_stores),
    **{f"uncached-word-store-is-one-dram-write[{cached}]": ("telemetry", lambda r, cached=cached: (
        r[f"word store[other lines cached={cached}]"] == ({STORE: 1, "mem/memory.PhysicalMemory._check": 1,
                                                          "mem/memory.PhysicalMemory.write": 1}, True)))
       for cached in (False, True)},
    "write-makes-at-most-40-calls": (
        "transport", lambda r: py(r["~write[8 B]"], OUTSIDE_SIM) <= 40),
    "chained-wr-costs-at-most-10-calls": ("transport", _chain_bounded),
    **{f"no-enum-host-or-unrecorded-note[{verb}]": ("transport", partial(_unrecorded, verb=verb))
       for verb in VERBS},
    **{f"registry-hit-is-one-frame[{kind}]": ("transport", lambda r, kind=kind: all(
        py(r[f"~{kind} hit[{how}]"]) == 1 and r[f"{kind} hit[{how}] is its series"]
        for how in ("bare", "labelled"))) for kind in ("counter", "histogram", "gauge")},
    **{f"warm-commit-is-a-fence-read-and-one-chain[{step}]": ("install", lambda r, step=step: (
        r[f"warm {step}"] == WARM[step]
        and (step != "deploy" or r["warm deploy commit, cc us"] == (0.0, params.RDX_CC_EVENT_US))))
       for step in WARM},
    "reused-extent-costs-one-more-doorbell": ("install", lambda r: r["reused extent"] == {
        "wqe-chain:5": 1, "wqe:read": 1} and _row(r, "reused extent:") == (True, 2, params.RDX_CC_EVENT_US, 8448)),
    "relayed-leg-fences-under-the-relay-dispatch": (
        "install", lambda r: _row(r, "relayed leg") == (3, True, FAST_US, True)),
    "fence-read-flies-under-the-dispatch": ("install", _fence_under_dispatch),
    "no-microsecond-of-a-warm-deploy-unattributed": (
        "install", lambda r: _row(r, "warm deploy_prog dispatch")[3] == 0),
    "xstate-deploy-rings-one-doorbell": (
        "install.xstate", lambda r: r["xstate deploy WRs"]["doorbell"] == 1),
    # The stub rendezvous: paid once per uncertified layout.
    **{f"paid-once[{case}]": ("install.rendezvous", lambda r, case=case: (
        r[case][1] == (params.RDX_STUB_RENDEZVOUS_US if RENDEZVOUS[case][-1] else 0.0)))
       for case in RENDEZVOUS},
    "verdict-gates-the-raise-and-the-flip-not-the-bytes": ("stage.tree64", lambda r: r[
        "posted before, after the verdict"] == {"stage-chain": (64, 0), "cas": (0, 64), "flag": (0, 128)}),
    "each-leg-flips-once-its-own-bubble-is-up": ("stage.tree64", lambda r: (
        r["flips before their own raise landed"] == r["lowers before the last flip"] == 0)),
    "each-bubble-drops-after-its-own-hook-line-flush": (
        "stage.tree64", lambda r: r["lowers before their own hook-line flush"] == 0),
    "tree-window-moves-no-body-byte": ("stage.tree64", _no_body_byte),
    "tree-stages-ride-the-relays": ("stage.tree64", lambda r: r["stage"] == {
        ("control", "epoch-read"): 4 + 4, ("control", "raise-chain"): 4, ("control", "stage-chain"): 4,
        ("relay", "epoch-read"): 60 + 60, ("relay", "raise-chain"): 60, ("relay", "stage-chain"): 60}),
    "hold-is-the-window-plus-a-short-raise": ("stage.tree64", lambda r: (
        r["hold runs from the first raise"] and r["window, hold us"] == (13.05448, 23.85832))),
    "flat-stages-and-flips-stay-on-the-control-plane": ("stage.flat16", lambda r: (
        r["stage"] == {("control", "epoch-read"): 16, ("control", "stage-chain"): 16}
        and r["posted before, after the verdict"]["stage-chain"] == (0, 16)
        and r["window"] == {("control", "cas"): 16, ("control", "doorbell"): 16 + 16, ("control", "flag"): 16})),
    "flat-window-and-hold": ("stage.flat16", lambda r: r["window, hold us"] == (24.60768, 40.77776)),
    "flat-window-moves-no-body-byte": ("stage.flat16", _no_body_byte),
    "serial-window-moves-no-body-byte": ("stage.serial4", _no_body_byte),
    "hotpatch-does-not-wait-for-a-compile": ("serve", partial(_behind_a_compile_claim, workers=2)),
    "compile-holds-no-worker": ("serve", partial(_behind_a_compile_claim, workers=1)),
    "hotpatch-dispatches-on-a-core-no-compile-takes": (
        "serve", lambda r: _row(r, "hotpatch under")[3] == FAST_US),
    "cold-tickets-compile-together-and-install-one-at-a-time": (
        "serve", lambda r: _row(r, "cold pair[settle +0.0")[:6] == (2, 2) + (True,) * 4),
    "next-install-joins-a-settle-that-outlasts-its-dispatch": (
        "serve", lambda r: _row(r, "cold pair[settle +10.0")[:6] == (2, 2) + (True,) * 4),
    "hotpatch-overtakes-bulk-at-the-install-gate": (
        "serve", lambda r: _row(r, "hotpatch behind bulk")[2]),
    "same-layout-cold-install-skips-the-rendezvous": ("serve.records", lambda r: (
        lambda _warm, _mode, dispatch, past, over: (dispatch, past) == (FAST_US, 0.0) and over <= 6.1
    )(*_row(r, "same-layout"))),
    "each-tenant-series-counts-only-its-own-installs": (
        "serve.records", lambda r: _row(r, "two tenants") == (True, {"dev": 1, "pager": 1})),
    "settle-records-what-its-own-install-staged": ("serve.records", lambda r: _row(r, "settle under") == (
        True, (("hot", False), ("helper", True)), True, {"dev": 1, "pager": 1})),
    "tenant-labels-its-own-tickets-deploy-only": (
        "serve.records", lambda r: _row(r, "ticket then") == {"pager": 1, "": 2}),
    "back-to-back-hotpatches-are-race-free": ("serve.records", lambda r: all(_row(r, "back-to-back"))),
}


@cache
def live(name: str) -> dict:
    """Scenario ``name``'s rows, ``~`` rows included, measured once."""
    return SCENARIOS[name]()


def pinned(rows: dict) -> dict:
    return {name: value for name, value in rows.items() if not name.startswith("~")}


@pytest.mark.parametrize("name", SCENARIOS)
def test_row(name):
    assert pinned(live(name)) == COSTS[name]


@pytest.mark.parametrize("name", CLAIMS, ids=[f"{where}:{name}" for name, (where, _) in CLAIMS.items()])
def test_claim(name):
    scenario_, holds = CLAIMS[name]
    assert holds(live(scenario_)), pinned(live(scenario_))


def test_every_mutant_names_a_claim():
    from tests import mutants

    for mutant in mutants.MUTANTS.values():
        if "::" in mutant.claim:
            path, *_, test = mutant.claim.split("::")
            source = (Path(__file__).resolve().parents[1] / path).read_text()
            assert f"def {test.split('[')[0]}(" in source, mutant.claim
        else:
            assert mutant.claim in CLAIMS


@pytest.mark.slow
def test_every_mutant_fails_its_claim():
    from tests import mutants

    assert mutants.main([]) == 0


COSTS = {
    'compile': {
        'verify[64]': {'ebpf/program.ProgramIdentity.image': 1, 'ebpf/verifier._State.with_reg': 4, 'ebpf/verifier._Verifier.__init__': 1, 'ebpf/verifier._Verifier._check_lddw_pairing': 1, 'ebpf/verifier._Verifier._check_unreachable': 1, 'ebpf/verifier._Verifier._check_writable': 4, 'ebpf/verifier._Verifier._do_alu': 3, 'ebpf/verifier._Verifier._do_jmp': 1, 'ebpf/verifier._Verifier._do_ldx': 1, 'ebpf/verifier._Verifier._read_reg': 2, 'ebpf/verifier._Verifier.run': 1, 'ebpf/verifier.verify': 1},
        'verify[818]': {'ebpf/program.ProgramIdentity.image': 1, 'ebpf/verifier._State.with_reg': 4, 'ebpf/verifier._Verifier.__init__': 1, 'ebpf/verifier._Verifier._check_lddw_pairing': 1, 'ebpf/verifier._Verifier._check_unreachable': 1, 'ebpf/verifier._Verifier._check_writable': 4, 'ebpf/verifier._Verifier._do_alu': 3, 'ebpf/verifier._Verifier._do_jmp': 1, 'ebpf/verifier._Verifier._do_ldx': 1, 'ebpf/verifier._Verifier._read_reg': 2, 'ebpf/verifier._Verifier.run': 1, 'ebpf/verifier.verify': 1},
        'verify[1300]': {'ebpf/program.ProgramIdentity.image': 1, 'ebpf/verifier._State.with_reg': 4, 'ebpf/verifier._Verifier.__init__': 1, 'ebpf/verifier._Verifier._check_lddw_pairing': 1, 'ebpf/verifier._Verifier._check_unreachable': 1, 'ebpf/verifier._Verifier._check_writable': 4, 'ebpf/verifier._Verifier._do_alu': 3, 'ebpf/verifier._Verifier._do_jmp': 1, 'ebpf/verifier._Verifier._do_ldx': 1, 'ebpf/verifier._Verifier._read_reg': 2, 'ebpf/verifier._Verifier.run': 1, 'ebpf/verifier.verify': 1},
        'verify[1300]-verify[64]': {},
        'states visited[1300]': 1300,
        'verify[818,8 diamonds]': {'ebpf/program.ProgramIdentity.image': 1, 'ebpf/verifier._State.with_reg': 4, 'ebpf/verifier._Verifier.__init__': 1, 'ebpf/verifier._Verifier._check_forward': 16, 'ebpf/verifier._Verifier._check_lddw_pairing': 1, 'ebpf/verifier._Verifier._check_unreachable': 1, 'ebpf/verifier._Verifier._check_writable': 4, 'ebpf/verifier._Verifier._do_alu': 3, 'ebpf/verifier._Verifier._do_jmp': 17, 'ebpf/verifier._Verifier._do_ldx': 1, 'ebpf/verifier._Verifier._read_reg': 10, 'ebpf/verifier._Verifier.run': 1, 'ebpf/verifier.verify': 1},
        'verify[818,24 diamonds]': {'ebpf/program.ProgramIdentity.image': 1, 'ebpf/verifier._State.with_reg': 4, 'ebpf/verifier._Verifier.__init__': 1, 'ebpf/verifier._Verifier._check_forward': 48, 'ebpf/verifier._Verifier._check_lddw_pairing': 1, 'ebpf/verifier._Verifier._check_unreachable': 1, 'ebpf/verifier._Verifier._check_writable': 4, 'ebpf/verifier._Verifier._do_alu': 3, 'ebpf/verifier._Verifier._do_jmp': 49, 'ebpf/verifier._Verifier._do_ldx': 1, 'ebpf/verifier._Verifier._read_reg': 26, 'ebpf/verifier._Verifier.run': 1, 'ebpf/verifier.verify': 1},
        'jit[64]': {'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[818]': {'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[1300]': {'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[x86_64,plain,818]': {'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[x86_64,map,64]': {'ebpf/helpers.helper_by_id': 1, 'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[x86_64,map,818]': {'ebpf/helpers.helper_by_id': 1, 'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[x86_64,map,1300]': {'ebpf/helpers.helper_by_id': 1, 'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[arm64,plain,818]': {'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[arm64,map,64]': {'ebpf/helpers.helper_by_id': 1, 'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[arm64,map,818]': {'ebpf/helpers.helper_by_id': 1, 'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'jit[arm64,map,1300]': {'ebpf/helpers.helper_by_id': 1, 'ebpf/jit._arch_id': 1, 'ebpf/jit.emit_binary': 1, 'ebpf/jit.jit_compile': 1, 'ebpf/program.ProgramIdentity.image': 1},
        'relocations': 2,
    },
    'first-exec': {
        'decode[plain,64]': {'ebpf/jit._arch_name': 1, 'ebpf/jit.decode_image': 1, 'ebpf/jit.first_bad_slot': 1},
        'decode[map,64]': {'cost.helper_at': 1, 'cost.map_slot_at': 1, 'ebpf/jit._arch_name': 1, 'ebpf/jit._operand': 2, 'ebpf/jit.decode_image': 1, 'ebpf/jit.first_bad_slot': 1},
        'decode[plain,818]': {'ebpf/jit._arch_name': 1, 'ebpf/jit.decode_image': 1, 'ebpf/jit.first_bad_slot': 1},
        'decode[map,818]': {'cost.helper_at': 1, 'cost.map_slot_at': 1, 'ebpf/jit._arch_name': 1, 'ebpf/jit._operand': 2, 'ebpf/jit.decode_image': 1, 'ebpf/jit.first_bad_slot': 1},
        'decode[plain,1300]': {'ebpf/jit._arch_name': 1, 'ebpf/jit.decode_image': 1, 'ebpf/jit.first_bad_slot': 1},
        'decode[map,1300]': {'cost.helper_at': 1, 'cost.map_slot_at': 1, 'ebpf/jit._arch_name': 1, 'ebpf/jit._operand': 2, 'ebpf/jit.decode_image': 1, 'ebpf/jit.first_bad_slot': 1},
        'read hit[8]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'sim/core.Simulator.now': 1},
        'read hit[64]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'sim/core.Simulator.now': 1},
        'read hit[4096]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'sim/core.Simulator.now': 1},
        'read hit[13012]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'sim/core.Simulator.now': 1},
        'read hit[line]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'sim/core.Simulator.now': 1},
        'read miss[8]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'mem/memory.PhysicalMemory._check': 1, 'mem/memory.PhysicalMemory.read': 1, 'sim/core.Simulator.now': 1},
        'lines[8]': 1,
        'read miss[4096]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'mem/memory.PhysicalMemory._check': 65, 'mem/memory.PhysicalMemory.read': 65, 'sim/core.Simulator.now': 1},
        'lines[4096]': 65,
        'read miss[13012]': {'mem/cache.CacheModel._eviction_rate': 1, 'mem/cache.CacheModel.cpu_read': 1, 'mem/memory.PhysicalMemory._check': 204, 'mem/memory.PhysicalMemory.read': 204, 'sim/core.Simulator.now': 1},
        'lines[13012]': 204,
        'run[1 blocks]': {'ebpf/interpreter.Interpreter.run': 1},
        'run[400 blocks]': {'ebpf/interpreter.Interpreter.run': 1},
        'insns executed[400 blocks]': 3605,
    },
    'kernel': {
        'sleeps[110]-sleeps[10]': {'cost._sleeper': 100, 'sim/core.Process._resume': 100},
        'slices[110]-slices[10]': {'cost._sliced': 100, 'sim/core.Process._resume': 100, 'sim/resources.CPU.run': 100},
        'same instant: steps, events': (('opened', 'child', 'joined'), 5),
        '10 spawns': {'cost._sleeper': 20, 'cost.ten_spawns': 1, 'sim/core.Event.__init__': 11, 'sim/core.Event.succeed': 10, 'sim/core.Process.__init__': 10, 'sim/core.Process._resume': 20, 'sim/core.Simulator._dispatch': 1, 'sim/core.Simulator.run': 1, 'sim/core.Simulator.spawn': 10, 'sim/core._Tick.__init__': 10},
        '10 spawns events': 30,
        '3-MTU chain': {'cost.post': 2, 'mem/cache.CacheModel.dma_write': 3, 'mem/memory.PhysicalMemory._check': 3, 'mem/memory.PhysicalMemory.write': 3, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 2, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 1, 'rdma/qp.QueuePair.post_send_batch': 1, 'rdma/rnic.Rnic._check_reachable': 4, 'rdma/rnic.Rnic._process_batch': 8, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit_batch': 1, 'sim/core.Event.__init__': 4, 'sim/core.Event.succeed': 4, 'sim/core.Event.value': 1, 'sim/core.Process.__init__': 2, 'sim/core.Process._resume': 10, 'sim/core.Simulator._dispatch': 1, 'sim/core.Simulator.event': 1, 'sim/core.Simulator.run_process': 1, 'sim/core.Simulator.spawn': 2, 'sim/core._Tick.__init__': 2, 'sim/resources.Resource._settle': 1, 'sim/resources.Resource.release': 1, 'sim/resources.Resource.request': 1},
        '3-MTU chain status': 'SUCCESS',
    },
    'telemetry': {
        'checkpoint[10]': {'cost.counted': 1, 'obs/flight.FlightRecorder._push': 3, 'obs/flight.FlightRecorder.note_metrics': 1, 'obs/metrics.MetricsRegistry.take_moved': 1, 'sim/core.Simulator.now': 1},
        'checkpoint[10]: sorted, entries': ((3,), (((('leg', '0'),), 2.0, 3.0), ((('leg', '1'),), 2.0, 3.0), ((('leg', '2'),), 2.0, 3.0))),
        'checkpoint[1000]': {'cost.counted': 1, 'obs/flight.FlightRecorder._push': 3, 'obs/flight.FlightRecorder.note_metrics': 1, 'obs/metrics.MetricsRegistry.take_moved': 1, 'sim/core.Simulator.now': 1},
        'checkpoint[1000]: sorted, entries': ((3,), (((('leg', '0'),), 2.0, 3.0), ((('leg', '1'),), 2.0, 3.0), ((('leg', '2'),), 2.0, 3.0))),
        'depth gauges': {'mem/cache.CacheModel.cpu_write': 4, 'mem/memory.PhysicalMemory._check': 4, 'mem/memory.PhysicalMemory.write': 4, 'obs/segment.TelemetrySegment.__enter__': 1, 'obs/segment.TelemetrySegment.__exit__': 1, 'obs/segment.TelemetrySegment._store': 2, 'obs/segment.TelemetrySegment.begin_update': 1, 'obs/segment.TelemetrySegment.end_update': 1, 'obs/segment.TelemetrySegment.set_gauge': 2, 'serve/admission.<genexpr>': 4, 'serve/admission.AdmissionController.pending': 1, 'serve/service.DeployService._note_depth': 1},
        'depth gauges seq': 2,
        '10 tickets': {'mem/cache.CacheModel.cpu_write': 220, 'mem/cache.CacheModel.dma_read': 10, 'mem/cache.CacheModel.dma_write': 30, 'mem/cache.CacheModel.flush': 10, 'mem/layout.pack_qword': 10, 'mem/layout.unpack_qword': 10, 'mem/memory.PhysicalMemory._check': 270, 'mem/memory.PhysicalMemory.read': 20, 'mem/memory.PhysicalMemory.write': 250, 'obs/flight.FlightRecorder._push': 80, 'obs/flight.FlightRecorder.note_metrics': 10, 'obs/flight.FlightRecorder.record_span': 20, 'obs/flight._jsonable': 80, 'obs/metrics.Counter.inc': 110, 'obs/metrics.Histogram.observe': 150, 'obs/metrics.MetricsRegistry.lookup': 180, 'obs/metrics.MetricsRegistry.take_moved': 10, 'obs/segment.TelemetrySegment.__enter__': 50, 'obs/segment.TelemetrySegment.__exit__': 50, 'obs/segment.TelemetrySegment._store': 120, 'obs/segment.TelemetrySegment.begin_update': 70, 'obs/segment.TelemetrySegment.end_update': 70, 'obs/segment.TelemetrySegment.inc': 30, 'obs/segment.TelemetrySegment.observe': 10, 'obs/segment.TelemetrySegment.set_gauge': 60, 'obs/segment.bucket_of': 10, 'obs/spans.Span.__enter__': 10, 'obs/spans.Span.__exit__': 10, 'obs/spans.Span.duration_us': 60, 'obs/spans.Span.finish': 20, 'obs/spans.Span.finished': 30, 'obs/spans.SpanTracer.finish': 20, 'obs/spans.SpanTracer.start': 20, 'obs/telemetry.Telemetry.span': 20, 'obs/telemetry.Telemetry.target_label': 20},
        'segment: consistent, completed, count, queued, inflight': (True, 16, 16, 0.0, 0.0),
        'word store[other lines cached=False]': ({'mem/cache.CacheModel.cpu_write': 1, 'mem/memory.PhysicalMemory._check': 1, 'mem/memory.PhysicalMemory.write': 1}, True),
        'word store[other lines cached=True]': ({'mem/cache.CacheModel.cpu_write': 1, 'mem/memory.PhysicalMemory._check': 1, 'mem/memory.PhysicalMemory.write': 1}, True),
    },
    'transport': {
        'write[8 B]': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._post': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync.write': 2, 'mem/cache.CacheModel.dma_write': 1, 'mem/memory.PhysicalMemory._check': 1, 'mem/memory.PhysicalMemory.write': 1, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 1, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 1, 'rdma/qp.QueuePair.post_send': 1, 'rdma/rnic.Rnic._check_reachable': 2, 'rdma/rnic.Rnic._do_write': 4, 'rdma/rnic.Rnic._process': 6, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit': 1},
        'install[1]': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._body_note': 1, 'core/sync.RemoteSync._post_window': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync._settle_install': 1, 'core/sync.RemoteSync.install': 2, 'mem/cache.CacheModel.dma_write': 1, 'mem/memory.PhysicalMemory._check': 1, 'mem/memory.PhysicalMemory.write': 1, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 2, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 1, 'rdma/qp.QueuePair.post_send_batch': 1, 'rdma/rnic.Rnic._check_reachable': 2, 'rdma/rnic.Rnic._process_batch': 6, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit_batch': 1},
        'install[11]': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._body_note': 1, 'core/sync.RemoteSync._post_window': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync._settle_install': 1, 'core/sync.RemoteSync.install': 2, 'mem/cache.CacheModel.dma_write': 11, 'mem/memory.PhysicalMemory._check': 11, 'mem/memory.PhysicalMemory.write': 11, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 2, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 11, 'rdma/qp.QueuePair.post_send_batch': 1, 'rdma/rnic.Rnic._check_reachable': 12, 'rdma/rnic.Rnic._process_batch': 16, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit_batch': 1},
        'install[3]': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._body_note': 1, 'core/sync.RemoteSync._post_window': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync._settle_install': 1, 'core/sync.RemoteSync.install': 2, 'mem/cache.CacheModel.dma_write': 3, 'mem/memory.PhysicalMemory._check': 3, 'mem/memory.PhysicalMemory.write': 3, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 2, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 3, 'rdma/qp.QueuePair.post_send_batch': 1, 'rdma/rnic.Rnic._check_reachable': 4, 'rdma/rnic.Rnic._process_batch': 8, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit_batch': 1},
        'write[2 MTU]': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._post': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync.write': 2, 'mem/cache.CacheModel.dma_write': 2, 'mem/memory.PhysicalMemory._check': 2, 'mem/memory.PhysicalMemory.write': 2, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 1, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 1, 'rdma/qp.QueuePair.post_send': 1, 'rdma/rnic.Rnic._check_reachable': 3, 'rdma/rnic.Rnic._do_write': 5, 'rdma/rnic.Rnic._process': 7, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit': 1},
        'read[2 MTU]': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._post': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync.read': 2, 'mem/cache.CacheModel.dma_read': 1, 'mem/memory.PhysicalMemory._check': 1, 'mem/memory.PhysicalMemory.read': 1, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 1, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 1, 'rdma/qp.QueuePair.post_send': 1, 'rdma/rnic.Rnic._check_reachable': 1, 'rdma/rnic.Rnic._do_read': 3, 'rdma/rnic.Rnic._process': 5, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit': 1},
        'cas': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._post': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync.cas': 2, 'mem/cache.CacheModel.dma_write': 1, 'mem/layout.pack_qword': 1, 'mem/layout.unpack_qword': 1, 'mem/memory.PhysicalMemory._check': 2, 'mem/memory.PhysicalMemory.read': 1, 'mem/memory.PhysicalMemory.write': 1, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 1, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 1, 'rdma/qp.QueuePair.post_send': 1, 'rdma/rnic.Rnic._apply_atomic': 1, 'rdma/rnic.Rnic._check_atomic': 1, 'rdma/rnic.Rnic._check_reachable': 1, 'rdma/rnic.Rnic._do_atomic': 2, 'rdma/rnic.Rnic._process': 4, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit': 1},
        'fetch_add': {'core/retry.RetryPolicy.run': 2, 'core/sync.RemoteSync._post': 1, 'core/sync.RemoteSync._settle': 1, 'core/sync.RemoteSync.fetch_add': 2, 'mem/cache.CacheModel.dma_write': 1, 'mem/layout.pack_qword': 1, 'mem/layout.unpack_qword': 1, 'mem/memory.PhysicalMemory._check': 2, 'mem/memory.PhysicalMemory.read': 1, 'mem/memory.PhysicalMemory.write': 1, 'obs/metrics.Counter.inc': 2, 'obs/metrics.Histogram.observe': 1, 'rdma/cq.CompletionQueue.poll': 1, 'rdma/cq.CompletionQueue.push': 1, 'rdma/mr.ProtectionDomain.check_remote': 1, 'rdma/qp.QueuePair.post_send': 1, 'rdma/rnic.Rnic._apply_atomic': 1, 'rdma/rnic.Rnic._check_atomic': 1, 'rdma/rnic.Rnic._check_reachable': 1, 'rdma/rnic.Rnic._do_atomic': 2, 'rdma/rnic.Rnic._process': 4, 'rdma/rnic.Rnic._retire': 1, 'rdma/rnic.Rnic.submit': 1},
        'install[11]-install[1]': {'mem/cache.CacheModel.dma_write': 10, 'mem/memory.PhysicalMemory._check': 10, 'mem/memory.PhysicalMemory.write': 10, 'rdma/mr.ProtectionDomain.check_remote': 10, 'rdma/rnic.Rnic._check_reachable': 10, 'rdma/rnic.Rnic._process_batch': 10},
        'write[8 B] landed': True,
        'counter hit[bare]': {'obs/metrics.MetricsRegistry.lookup': 1},
        'counter hit[bare] is its series': True,
        'counter hit[labelled]': {'obs/metrics.MetricsRegistry.lookup': 1},
        'counter hit[labelled] is its series': True,
        'histogram hit[bare]': {'obs/metrics.MetricsRegistry.lookup': 1},
        'histogram hit[bare] is its series': True,
        'histogram hit[labelled]': {'obs/metrics.MetricsRegistry.lookup': 1},
        'histogram hit[labelled] is its series': True,
        'gauge hit[bare]': {'obs/metrics.MetricsRegistry.lookup': 1},
        'gauge hit[bare] is its series': True,
        'gauge hit[labelled]': {'obs/metrics.MetricsRegistry.lookup': 1},
        'gauge hit[labelled] is its series': True,
    },
    'install': {
        'warm deploy': {'wqe-chain:4': 1, 'wqe:read': 1},
        'warm deploy commit, cc us': (0.0, 2.0),
        'warm rollback': {'wqe-chain:2': 1, 'wqe:read': 1},
        'warm detach': {'wqe-chain:2': 1, 'wqe:read': 1, 'wqe:write': 1},
        'reused extent': {'wqe-chain:5': 1, 'wqe:read': 1},
        'reused extent: reused, flushes, cc us, bytes': (True, 2, 2.0, 8448),
        'warm deploy_prog spawns': {'': 1, 'dispatch': 1, 'wqe-chain:4': 1, 'wqe:read': 1},
        'warm deploy_prog first spawned at': {'': 0.0, 'dispatch': 0.0, 'wqe-chain:4': 3.0, 'wqe:read': 0.0},
        'warm deploy_prog dispatch, write, cc, unattributed us': (3.0, 3.62648, 2.0, 0.0),
        'relayed leg: dispatches, fence and prep at its start, relay CPU us, chain after prep': (3, True, 3.0, True),
    },
    'install.xstate': {
        'xstate deploy WRs': {'cas': 1, 'doorbell': 1, 'read': 1, 'write': 1},
    },
    'install.rendezvous': {
        'delta-patch': (0, 0.0),
        'cold-onto-a-same-layout-owner': (0, 0.0),
        'first-deploy': (0, 8.0),
        'after-rollback': (0, 8.0),
        'after-reboot': (0, 8.0),
        'after-adopt': (0, 8.0),
        'after-a-moved-map': (0, 8.0),
        'serial': (0, 8.0),
    },
    'stage.tree64': {
        'stage': {('control', 'epoch-read'): 8, ('control', 'raise-chain'): 4, ('control', 'stage-chain'): 4, ('relay', 'epoch-read'): 120, ('relay', 'raise-chain'): 60, ('relay', 'stage-chain'): 60},
        'posted before, after the verdict': {'stage-chain': (64, 0), 'cas': (0, 64), 'flag': (0, 128)},
        'targets raised, flipped, settled, lowered': (64, 64, 64, 64),
        'flips before their own raise landed': 0,
        'flips before the last raise landed': 20,
        'lowers before the last flip': 0,
        'lowers before their own hook-line flush': 0,
        'lowers before the last hook-line flush': 4,
        'window': {('control', 'doorbell'): 4, ('control', 'flag'): 4, ('relay', 'cas'): 44, ('relay', 'doorbell'): 104, ('relay', 'flag'): 60},
        'window, hold us': (13.05448, 23.85832),
        'hold runs from the first raise': True,
    },
    'stage.flat16': {
        'stage': {('control', 'epoch-read'): 16, ('control', 'stage-chain'): 16},
        'posted before, after the verdict': {'stage-chain': (0, 16), 'cas': (0, 16), 'flag': (0, 32)},
        'targets raised, flipped, settled, lowered': (16, 16, 16, 16),
        'flips before their own raise landed': 0,
        'flips before the last raise landed': 0,
        'lowers before the last flip': 0,
        'lowers before their own hook-line flush': 0,
        'lowers before the last hook-line flush': 12,
        'window': {('control', 'cas'): 16, ('control', 'doorbell'): 32, ('control', 'flag'): 16},
        'window, hold us': (24.60768, 40.77776),
        'hold runs from the first raise': True,
    },
    'stage.serial4': {
        'stage': {('control', 'epoch-read'): 4, ('control', 'stage-chain'): 4},
        'posted before, after the verdict': {'stage-chain': (0, 4), 'cas': (0, 4), 'flag': (0, 8)},
        'targets raised, flipped, settled, lowered': (4, 4, 4, 4),
        'flips before their own raise landed': 0,
        'flips before the last raise landed': 0,
        'lowers before the last flip': 0,
        'lowers before their own hook-line flush': 0,
        'lowers before the last hook-line flush': 0,
        'window': {('control', 'cas'): 4, ('control', 'doorbell'): 8, ('control', 'flag'): 4},
        'window, hold us': (19.9532, 36.9532),
        'hold runs from the first raise': True,
    },
    'stage.tree256': {
        'first: walks, total, hold, window us, relay QPs': (('stage', 'raise', 'lower'), 441.36344, 31.96152, 15.75576, 252),
        'second: walks, total, hold, window us, relay QPs': (('stage', 'flip', 'lower'), 69.58496, 48.74064, 24.60768, 252),
    },
    'serve': {
        'hotpatch behind a compile[2 workers]: warm, validated at 50 us, alone, patch us, queued us, first': (True, 1, 8.32008, 8.32008, 0.0, True),
        'hotpatch behind a compile[1 workers]: warm, validated at 50 us, alone, patch us, queued us, first': (True, 1, 8.32008, 8.32008, 0.0, True),
        'hotpatch under three compiles: cores busy, cores, warm, dispatch us, first': (3, 4, True, 3.0, True),
        'cold pair[settle +0.0 us]: compiles, runs, overlap, one at a time, held to the CAS, next waits for the record, holds': (2, 2, True, True, True, True, ((318.16152, 332.4236), (332.4236, 346.68568))),
        'cold pair[settle +10.0 us]: compiles, runs, overlap, one at a time, held to the CAS, next waits for the record, holds': (2, 2, True, True, True, True, ((318.16152, 332.4236), (332.4236, 355.63568))),
        'hotpatch behind bulk: done, coalesced, first of the queued': (True, 2, True),
    },
    'serve.records': {
        'same-layout cold: warm, mode, dispatch us, patch past the hold us, patch over idle us': (False, 'full', 3.0, 0.0, 5.96208),
        'two tenants: pager first, installs each': (True, {'dev': 1, 'pager': 1}),
        'settle under the next grant: warm, (layout, under a settle), own layouts, installs': (True, (('hot', False), ('helper', True)), True, {'dev': 1, 'pager': 1}),
        'ticket then unlocked broadcast: installs': {'pager': 1, '': 2},
        "back-to-back hotpatches: second stages under the first's flush, runs, race-free": (True, True, True),
    },
}


if __name__ == "__main__":
    print("COSTS = {")
    for name in SCENARIOS:
        print(f"    {name!r}: {{")
        for row, value in pinned(live(name)).items():
            print(f"        {row!r}: {value!r},")
        print("    },")
    print("}")

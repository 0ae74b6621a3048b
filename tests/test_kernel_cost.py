"""Deterministic cost guard for the simulation kernel.

What an event costs in :mod:`repro.sim` is mostly *how many calls it
makes* -- Python-level ones, and the heap's -- and those counts repeat
exactly (the ledger's ``sim.pycalls`` row is the same count, taken by
cProfile).  These tests count ``call`` and ``c_call`` events with
:func:`sys.setprofile`, the way ``test_first_exec_cost.py`` does for the
data path, so none of the following can come back unnoticed, on any
host, however noisy:

* a bare-number sleep, and an uncontended ``cpu.run`` slice, cost one
  ``Process._resume`` plus the generator's own frames;
* whatever is scheduled for the instant it is created in -- a
  ``succeed``, a spawn, a process completing under a joiner -- never
  touches the heap;
* a spawn allocates no bootstrap event, and the RNIC's chain path no
  ``Timeout``.
"""

import gc
import sys
from collections import Counter
from heapq import heappop, heappush
from pathlib import Path

import repro.sim
from repro.rdma.cq import WcStatus
from repro.rdma.qp import WorkRequest, WrOpcode
from repro.rdma.rnic import RNIC_MTU_BYTES, Rnic
from repro.sim.core import Simulator, Timeout, _Poke
from repro.sim.resources import CPU

_SIM_DIR = Path(repro.sim.__file__).parent


def profile(function, *args):
    """``(python, builtin)``: the Python-level calls, by code object,
    and the C-level ones, by builtin, made while ``function(*args)``
    runs (``function``'s own frame included)."""
    python, builtin = Counter(), Counter()

    def on_event(frame, event, arg):
        if event == "call":
            python[frame.f_code] += 1
        elif event == "c_call":
            builtin[arg] += 1

    gc.disable()  # a collection would run whatever callbacks are installed
    sys.setprofile(on_event)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return python, builtin


def kernel_calls(python: Counter) -> Counter:
    """The calls into ``repro.sim``'s own code, by ``module.function``."""
    calls = Counter()
    for code, count in python.items():
        path = Path(code.co_filename)
        if path.parent == _SIM_DIR:
            calls[f"{path.stem}.{code.co_name}"] += count
    return calls


# -- one _resume per sleep, per slice -----------------------------------------

def _sleeper(_cpu, sleeps):
    for _ in range(sleeps):
        yield 1.0


def _sliced(cpu, slices):
    yield from cpu.run(float(slices), quantum_us=1.0)


def _calls_of_a_run(body, *args):
    sim = Simulator()
    cpu = CPU(sim, cores=2)
    sim.spawn(body(cpu, *args))
    python, _builtin = profile(sim.run)
    assert not sim.failed_processes
    return python


def test_a_bare_number_sleep_costs_one_resume():
    extra = _calls_of_a_run(_sleeper, 110) - _calls_of_a_run(_sleeper, 10)
    assert kernel_calls(extra) == {"core._resume": 100}
    assert sum(extra.values()) == 200  # and _sleeper's own frame


def test_an_uncontended_cpu_slice_costs_one_resume():
    extra = _calls_of_a_run(_sliced, 110) - _calls_of_a_run(_sliced, 10)
    assert kernel_calls(extra) == {"core._resume": 100, "resources.run": 100}
    assert sum(extra.values()) == 300  # and _sliced's own frame


# -- the same instant never touches the heap ----------------------------------

def test_same_instant_wakeups_make_no_heap_call():
    """``succeed`` -> waiter resumed, spawn -> first step, completion ->
    joiner resumed: none of them is ordered against anything it could
    overtake, so none of them pays for a heap."""
    sim = Simulator()
    gate = sim.event()
    steps = []

    def child():
        steps.append("child")
        return "joined"
        yield

    def parent():
        steps.append((yield gate))
        steps.append((yield sim.spawn(child())))

    def scenario():
        sim.spawn(parent())
        sim.run()
        gate.succeed("opened")
        sim.run()

    _python, builtin = profile(scenario)
    assert steps == ["opened", "child", "joined"]
    assert sim.processed_events == 5  # two first steps, the gate, two completions
    assert builtin[heappush] == builtin[heappop] == 0


def test_a_spawn_allocates_no_bootstrap_event():
    sim = Simulator()

    def scenario():
        for _ in range(10):
            sim.spawn(_sleeper(None, 1))
        sim.run()

    python, _builtin = profile(scenario)
    assert sim.processed_events == 30  # per process: first step, sleep, completion
    assert python[_Poke.__init__.__code__] == 0


# -- the transport path sleeps on bare numbers --------------------------------

def test_a_wr_chain_constructs_no_timeout(testbed):
    sync = testbed.codeflow.sync
    length = 3 * RNIC_MTU_BYTES
    addr = testbed.codeflow.code_allocator.alloc(length, align=64)
    chain = [WorkRequest(
        opcode=WrOpcode.RDMA_WRITE, remote_addr=addr, rkey=sync.rkey,
        data=bytes(index % 255 + 1 for index in range(length)),
    )]
    testbed.sim.run()
    completions = []

    def post():
        completions.append((yield sync.qp.post_send_batch(chain)))

    python, _builtin = profile(testbed.sim.run_process, post())
    assert completions[0].status is WcStatus.SUCCESS
    # Its start, the pipeline grant and six sleeps.
    assert python[Rnic._process_batch.__code__] == 8
    assert python[Timeout.__init__.__code__] == 0

"""Deterministic cost guard for telemetry: it costs what moved.

What the control plane pays per deploy for being observable is mostly
*how many calls and stores it makes*, and those counts repeat exactly
(the ledger's ``obs.pycalls`` / ``mem.pycalls`` rows are the same
counts, taken by cProfile).  These tests count ``call`` and ``c_call``
events with :func:`sys.setprofile`, the way ``test_kernel_cost.py`` does
for the kernel, per named function, so none of the following can come
back unnoticed:

* a flight-recorder checkpoint walks and sorts the counters that moved
  since the last one, however many series the registry holds;
* the serve segment's depth gauges share one seqlock bracket, and so
  does everything a completing ticket stores;
* an 8-byte store to a line the cache does not hold is one
  ``PhysicalMemory.write`` and its bounds check.
"""

from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.ebpf.stress import make_stress_program
from repro.mem.cache import CacheModel
from repro.mem.memory import PhysicalMemory
from repro.obs import metrics
from repro.obs.telemetry import Telemetry
from repro.serve import DeployService
from repro.sim.core import Simulator
from tests.test_kernel_cost import profile

_SRC = Path(repro.__file__).parent

pytestmark = pytest.mark.arm(obs=True, pipelined_deploy=True)


def calls_by_name(function, *args):
    """``({package/module.function: calls}, {builtin name: calls})`` made
    inside :mod:`repro` while ``function(*args)`` runs."""
    python, builtin = profile(function, *args)
    ours = Counter()
    for code, count in python.items():
        path = Path(code.co_filename)
        if _SRC in path.parents:
            ours[f"{path.parent.name}/{path.stem}.{code.co_name}"] += count
    names = Counter()
    for function_object, count in builtin.items():
        names[getattr(function_object, "__qualname__", repr(function_object))] += count
    return ours, names


# -- a checkpoint costs what moved --------------------------------------------

def _checkpoint_calls(idle_series, monkeypatch):
    """Calls of one ``note_metrics`` with three counters moved since the
    last, ``idle_series`` that did not, and the sizes ``sorted`` saw."""
    hub = Telemetry(Simulator())
    movers = [hub.counter("rdx.moved", leg=index) for index in range(3)]
    for index in range(idle_series):
        hub.counter("rdx.idle", series=index).inc()
        hub.gauge("rdx.level", series=index).set(1.0)
    for counter in movers:
        counter.inc()
    assert hub.flight.note_metrics(hub.registry) == 3 + idle_series
    for counter in movers:
        counter.inc(2)
    sorted_sizes = []

    def counting_sorted(iterable, **kwargs):
        items = list(iterable)
        sorted_sizes.append(len(items))
        return sorted(items, **kwargs)

    with monkeypatch.context() as patch:
        # A module global shadows the builtin for ``repro.obs.metrics``.
        patch.setattr(metrics, "sorted", counting_sorted, raising=False)
        ours, builtin = calls_by_name(hub.flight.note_metrics, hub.registry)
    entries = list(hub.flight.entries)[-3:]
    assert [(e["labels"], e["delta"], e["total"]) for e in entries] == [
        ({"leg": str(index)}, 2.0, 3.0) for index in range(3)
    ]
    return ours, builtin, sorted_sizes


def test_a_checkpoint_costs_the_counters_that_moved(monkeypatch):
    few = _checkpoint_calls(10, monkeypatch)
    many = _checkpoint_calls(1_000, monkeypatch)
    assert few == many
    ours, _builtin, sorted_sizes = few
    assert sorted_sizes == [3]
    assert ours == {
        "obs/flight.note_metrics": 1,
        "obs/metrics.take_moved": 1,
        "obs/flight._push": 3,
        "sim/core.now": 1,
    }


# -- one bracket per update ----------------------------------------------------

def _stores(ours):
    return ours["mem/cache.cpu_write"]


@pytest.fixture
def service(testbed):
    service = DeployService(testbed.control, workers=2)
    service.register("t", "hotpatch")
    service.start()
    return service


def _run_tickets(bed, service, program, count):
    def body():
        for _ in range(count):
            ticket = service.submit("t", bed.codeflow, program, "ingress")
            assert ticket.accepted
            yield ticket.done
            assert ticket.completed

    bed.sim.run_process(body())


def test_the_depth_gauges_share_one_bracket(testbed, service):
    seq = service.segment.snapshot_local().seq
    ours, _builtin = calls_by_name(service._note_depth)
    assert _stores(ours) <= 4  # seq, queued, inflight, seq
    assert service.segment.snapshot_local().seq == seq + 2


def test_a_completed_ticket_stores_at_most_28_words(testbed, service):
    program = make_stress_program(120, seed=1)
    _run_tickets(testbed, service, program, 2)  # cold, then admitted: warm from here
    few, _ = calls_by_name(_run_tickets, testbed, service, program, 2)
    many, _ = calls_by_name(_run_tickets, testbed, service, program, 12)
    ten_tickets = many - few
    assert _stores(ten_tickets) % 10 == 0
    assert _stores(ten_tickets) // 10 <= 28
    # ... each slot store being one call, with no layout look-up under it.
    assert not {"obs/segment.offset_of", "obs/segment.encode"} & set(ten_tickets)
    snapshot = service.segment.snapshot_local()
    assert snapshot.consistent
    assert snapshot.values["deploys.completed"] == service.completed == 16
    assert snapshot.values["deploy_us.count"] == 16
    assert (snapshot.values["queued"], snapshot.values["inflight"]) == (0.0, 0.0)


# -- the write side of ``mem`` -------------------------------------------------

@pytest.mark.parametrize("other_lines_cached", (False, True))
def test_a_word_store_to_an_uncached_line_is_one_dram_write(other_lines_cached):
    sim = Simulator()
    memory = PhysicalMemory(1 << 16)
    cache = CacheModel(sim, memory, seed=0)
    if other_lines_cached:
        cache.cpu_read(memory.base + 4096, 256)
    word = (7).to_bytes(8, "little")
    ours, _builtin = calls_by_name(cache.cpu_write, memory.base + 264, word)
    assert {name: n for name, n in ours.items() if name.startswith("mem/")} == {
        "mem/cache.cpu_write": 1,
        "mem/memory.write": 1,
        "mem/memory._check": 1,
    }
    assert memory.read(memory.base + 264, 8) == word

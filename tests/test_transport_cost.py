"""Deterministic cost guard for the one-sided op path.

An RDX primitive is one-sided verbs all the way down, so the control
plane's Python cost per work request bounds legs per CPU-second.  That
cost is mostly *how many calls* a WR makes between ``RemoteSync`` and the
fabric -- sync, retry, QP, RNIC, MR / CQ, metrics -- and those counts
repeat exactly (the ledger's ``rdma.pycalls`` / ``core.pycalls`` /
``obs.pycalls`` / ``net.pycalls`` rows are the same counts, taken by
cProfile).  These tests count them with :func:`sys.setprofile`, the way
``test_kernel_cost.py`` does for the kernel, so none of the following
can come back unnoticed:

* a fault-free 8-byte WRITE makes at most 40 calls outside ``repro.sim``,
  and each further WR of a chain at most 10;
* no op calls into ``enum.py`` (an ``IntFlag`` operator, ``.value``, an
  enum member hashed as a dict key) or asks the fabric to look a host
  up, and none builds an hb annotation or a trace event that nobody
  records;
* a metric look-up that finds its series is one frame, with or without
  labels.
"""

from collections import Counter
from functools import partial
from pathlib import Path

import pytest

import repro
from repro.obs.telemetry import Telemetry
from repro.rdma.rnic import RNIC_MTU_BYTES
from repro.sim.core import Simulator
from tests.test_kernel_cost import profile

_SRC = Path(repro.__file__).parent
_SIM = _SRC / "sim"

pytestmark = pytest.mark.arm(obs=True, hb_check=False, pipelined_deploy=True)


def outside_sim(function, *args):
    """The Python calls ``function(*args)`` makes outside ``repro.sim``,
    by ``package/module.function`` (``module.function`` elsewhere); the
    driving generator's own frames are left out."""
    python, _builtin = profile(function, *args)
    calls = Counter()
    for code, count in python.items():
        path = Path(code.co_filename)
        if path.parent == _SIM or code.co_name == "_drive":
            continue
        if _SRC in path.parents:
            calls[f"{path.parent.name}/{path.stem}.{code.co_name}"] += count
        else:
            calls[f"{path.stem}.{code.co_name}"] += count
    return calls


def _op_calls(bed, op, *args):
    """Calls of one ``sync.<op>(*args)`` run to completion."""
    sync = bed.codeflow.sync

    def _drive():
        yield from getattr(sync, op)(*args)

    bed.sim.run()
    return outside_sim(bed.sim.run_process, _drive())


def _chain(bed, wrs):
    word = bed.codeflow.manifest.code_addr
    return [(word + 64 * index, (index + 1).to_bytes(8, "little")) for index in range(wrs)]


def test_an_8_byte_write_makes_at_most_40_calls(testbed):
    addr = testbed.codeflow.manifest.scratchpad_addr
    calls = _op_calls(testbed, "write", addr, (7).to_bytes(8, "little"))
    assert sum(calls.values()) <= 40, calls
    assert testbed.host.memory.read(addr, 8) == (7).to_bytes(8, "little")


def test_each_extra_chained_wr_costs_at_most_10_calls(testbed):
    one = _op_calls(testbed, "install", _chain(testbed, 1), None, 0, 0, [])
    eleven = _op_calls(testbed, "install", _chain(testbed, 11), None, 0, 0, [])
    extra = eleven - one
    assert sum(extra.values()) <= 10 * 10, extra
    # ... of which the DMA into target memory is three: it is the work.
    assert extra["mem/cache.dma_write"] == 10


@pytest.mark.parametrize("op", ("write", "install", "read", "cas", "fetch_add"))
def test_no_op_calls_enum_the_host_table_or_an_unrecorded_note(testbed, op):
    sandbox = testbed.sandbox
    big = bytes(range(256)) * (RNIC_MTU_BYTES // 128)  # two MTUs
    args = {
        "write": (testbed.codeflow.manifest.code_addr, big),
        "install": (_chain(testbed, 3), None, 0, 0, []),
        "read": (testbed.codeflow.manifest.code_addr, len(big)),
        "cas": (sandbox.bubble_addr, 0, 1),
        "fetch_add": (sandbox.bubble_addr, 2),
    }[op]
    calls = _op_calls(testbed, op, *args)
    assert not [name for name in calls if name.startswith("enum.")], calls
    assert "net/fabric.host" not in calls
    assert "net/fabric.reachable" not in calls
    assert "core/sync._hb_note" not in calls
    assert "core/sync._trace_event" not in calls
    assert "obs/telemetry.telemetry_of" not in calls


@pytest.mark.parametrize("kind", ("counter", "histogram", "gauge"))
def test_a_registry_hit_is_one_frame(kind):
    hub = Telemetry(Simulator())
    lookup = getattr(hub, kind)
    bare = lookup(f"rdx.{kind}.bare")
    labelled = lookup(f"rdx.{kind}.labelled", target="node3", op="write", leg=7)
    for call, series in (
        (partial(lookup, f"rdx.{kind}.bare"), bare),
        (partial(lookup, f"rdx.{kind}.labelled", leg=7, op="write", target="node3"), labelled),
    ):
        python, _builtin = profile(call)
        assert sum(python.values()) == 1, python
        assert call() is series

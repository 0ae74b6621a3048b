"""Deterministic cost guard for the pipelined install.

A pipelined deploy installs with ONE WR chain: the image and the
256-byte descriptor, the commit CAS -- fenced, so it executes after
every earlier WR of the chain landed -- and an 8-byte doorbell per
flush span plus one for the hook line.  The initiator then waits
``RDX_CC_EVENT_US`` once for every flush.  These tests count what the
RNIC is handed, so none of the following can come back unnoticed:

* a warm deploy is two RNIC submissions -- the epoch-fence READ and
  the install chain -- and spawns no ``cc-doorbell`` writer (posting
  the CAS and each doorbell on its own made it four and one);
* a full image written into a *reused* extent is flushed, and the
  flush costs one more 8-byte WR on that chain, not a submission.
"""

from collections import Counter

import pytest

from repro import params
from repro.ebpf.stress import make_stress_program

pytestmark = pytest.mark.arm(pipelined_deploy=True, delta_deploy=False)


def _spawns(bed, step):
    """Processes ``step()`` spawned, by name with chain lengths kept."""
    names = Counter()
    spawn = bed.sim.spawn

    def spy(gen, name=None, **kwargs):
        names[name] += 1
        return spawn(gen, name=name, **kwargs)

    bed.sim.spawn = spy
    try:
        result = step()
    finally:
        del bed.sim.spawn
    return result, names


def _submissions(names):
    return {name: n for name, n in names.items() if name.startswith("wqe")}


def _inject(bed, program, **kwargs):
    return bed.sim.run_process(
        bed.control.inject(bed.codeflow, program, "ingress", **kwargs)
    )


def test_a_warm_deploy_is_a_fence_read_and_one_chain(testbed):
    program = make_stress_program(818, seed=1, name="app")
    _inject(testbed, program)
    report, names = _spawns(testbed, lambda: _inject(testbed, program))
    # image + descriptor + CAS + the hook line's doorbell
    assert _submissions(names) == {"wqe:read": 1, "wqe-chain:4": 1}
    assert names["cc-doorbell"] == 0
    assert (report.commit_us, report.cc_us) == (0.0, params.RDX_CC_EVENT_US)


def test_a_reused_extent_costs_one_more_doorbell(testbed):
    codeflow = testbed.codeflow
    first = _inject(testbed, make_stress_program(818, seed=1, name="app"))
    testbed.sim.run_process(codeflow.detach("app"))  # frees the extent
    flushes = codeflow.sync.cc_count
    report, names = _spawns(
        testbed,
        lambda: _inject(testbed, make_stress_program(818, seed=2, name="app")),
    )
    assert report.code_addr == first.code_addr  # the freed extent, reused
    assert _submissions(names) == {"wqe:read": 1, "wqe-chain:5": 1}
    assert names["cc-doorbell"] == 0
    assert codeflow.sync.cc_count == flushes + 2  # the image, then the hook
    # One flush wait for both, and one 8-byte WR on the wire for it.
    assert report.cc_us == params.RDX_CC_EVENT_US
    assert report.bytes_moved == 8448

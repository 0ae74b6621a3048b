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
  flush costs one more 8-byte WR on that chain, not a submission;
* the fence READ is posted the instant the dispatch starts and flies
  under it, so no microsecond of a deploy falls outside its phases
  (fencing first left one READ round trip in no phase) -- on a relayed
  tree leg too, where the dispatch is the relay host's, while a leg
  its bubble raise already fenced spawns nothing to overlap.
"""

from collections import Counter

import pytest

from repro import params
from repro.core.broadcast import CodeFlowGroup
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed

pytestmark = pytest.mark.arm(pipelined_deploy=True, delta_deploy=False)


def _spawns(bed, step, log=None):
    """Processes ``step()`` spawned, by name with chain lengths kept;
    ``log`` collects each spawn's ``(name, sim time)``."""
    names = Counter()
    spawn = bed.sim.spawn

    def spy(gen, name=None, **kwargs):
        names[name] += 1
        if log is not None:
            log.append((name, bed.sim.now))
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


def _first_spawned(log) -> dict:
    at = {}
    for name, now in log:
        at.setdefault(name, now)
    return at


def _linked_again(bed, program):
    """Deploy ``program`` once, then link it again for a warm deploy
    (a link-stage hit, so no stub rendezvous)."""
    codeflow = bed.codeflow
    _inject(bed, program)
    entry = bed.sim.run_process(bed.control.prepare_for(codeflow, program))
    return bed.sim.run_process(codeflow.link_code(entry.binary))


def _warm_deploy(bed, log=None):
    """A second deploy of one program, straight through ``deploy_prog``;
    returns (report, names)."""
    program = make_stress_program(818, seed=1, name="app")
    linked = _linked_again(bed, program)
    return _spawns(
        bed,
        lambda: bed.sim.run_process(
            bed.codeflow.deploy_prog(program, linked, "ingress")
        ),
        log,
    )


def test_the_fence_read_is_posted_as_the_dispatch_starts(testbed):
    log = []
    report, names = _warm_deploy(testbed, log)
    at = _first_spawned(log)
    assert at["wqe:read"] == at["dispatch"] == report.started_us
    assert names["dispatch"] == 1
    # The READ's round trip is shorter than the WQE prep, so the chain
    # goes out the instant the prep ends.
    assert report.dispatch_us == pytest.approx(params.RDX_DISPATCH_FAST_US)
    assert at["wqe-chain:4"] == pytest.approx(report.started_us + report.dispatch_us)


def test_no_microsecond_of_a_warm_deploy_is_unattributed(testbed):
    report, _ = _warm_deploy(testbed)
    assert report.total_us == pytest.approx(
        report.dispatch_us + report.write_us + report.cc_us, abs=1e-9
    )


@pytest.mark.arm(tree_broadcast=True, tree_degree=2)
def test_a_relayed_leg_fences_under_the_relay_hosts_dispatch(config):
    bed = make_testbed(
        n_hosts=3, cores_per_host=4, hooks=("ingress",), with_agents=False,
        config=config,
    )
    # d=2 over three targets: positions 0 and 1 are roots, fenced by
    # their bubble raise; position 2 is relayed through position 0.
    relay_cpu = bed.codeflows[0].sandbox.host.cpu
    busy = relay_cpu.busy_us
    programs = [
        make_stress_program(300, seed=i + 1, name=f"app{i}") for i in range(3)
    ]
    log = []
    result, names = _spawns(
        bed,
        lambda: bed.sim.run_process(
            CodeFlowGroup(bed.codeflows).broadcast(programs, "ingress")
        ),
        log,
    )
    assert names["dispatch"] == 1  # the relayed leg's; none per root
    started = _first_spawned(log)["dispatch"]
    assert ("wqe:read", started) in log
    assert relay_cpu.busy_us - busy == pytest.approx(params.RDX_DISPATCH_FAST_US)
    relayed = result.reports[2]
    assert relayed.started_us == started
    assert relayed.total_us == pytest.approx(
        relayed.dispatch_us + relayed.write_us + relayed.cc_us, abs=1e-9
    )

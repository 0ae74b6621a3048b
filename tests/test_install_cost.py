"""Deterministic cost guard for the pipelined install.

A pipelined deploy installs with ONE WR chain: the image and the
256-byte descriptor, the commit CAS -- fenced, so it executes after
every earlier WR of the chain landed -- and an 8-byte doorbell per
flush span plus one for the hook line.  The initiator then waits
``RDX_CC_EVENT_US`` once for every flush.  These tests count what the
RNIC is handed, so none of the following can come back unnoticed:

* a warm deploy is two RNIC submissions -- the epoch-fence READ and
  the install chain -- and spawns no ``cc-doorbell`` writer (posting
  the CAS and each doorbell on its own made it four and one); a
  rollback and a detach commit through the same hook commit, so each
  is the fence READ and a 2-WR chain of the CAS and the hook line's
  doorbell (a detach then writes its descriptor's state word);
* a full image written into a *reused* extent is flushed, and the
  flush costs one more 8-byte WR on that chain, not a submission;
* the fence READ is posted the instant the dispatch starts and flies
  under it, so no microsecond of a deploy falls outside its phases
  (fencing first left one READ round trip in no phase) -- on a relayed
  tree leg's stage too, where the dispatch is the relay host's;
* a new version on a hook whose owner was linked at the same layout
  skips the stub rendezvous, and every path that can leave the layout
  unknown -- a first deploy, a rollback, a reboot, an adoption, a
  moved map, the serial schedule -- still pays it.
"""

from collections import Counter

import pytest

from repro import params
from repro.core.broadcast import CodeFlowGroup
from repro.core.reconcile import Reconciler, resume_control_plane
from repro.core.xstate import XStateSpec
from repro.ebpf.maps import MapType
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.exp.harness import make_testbed

pytestmark = pytest.mark.arm(pipelined_deploy=True)


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


#: What each warm hook commit hands the RNIC: the fence READ, then one
#: chain ending in the CAS and the hook line's doorbell.
WARM = {
    # image + descriptor + CAS + doorbell
    "deploy": {"wqe:read": 1, "wqe-chain:4": 1},
    # CAS + doorbell
    "rollback": {"wqe:read": 1, "wqe-chain:2": 1},
    # CAS + doorbell, then the descriptor's state word
    "detach": {"wqe:read": 1, "wqe-chain:2": 1, "wqe:write": 1},
}


@pytest.mark.parametrize("op", list(WARM))
def test_a_warm_deploy_is_a_fence_read_and_one_chain(testbed, op):
    codeflow = testbed.codeflow
    program = make_stress_program(818, seed=1, name="app")
    _inject(testbed, program)
    if op == "rollback":
        _inject(testbed, make_stress_program(818, seed=2, name="app"))
    step = {
        "deploy": lambda: _inject(testbed, program),
        "rollback": lambda: testbed.sim.run_process(codeflow.rollback("app")),
        "detach": lambda: testbed.sim.run_process(codeflow.detach("app")),
    }[op]
    result, names = _spawns(testbed, step)
    assert _submissions(names) == WARM[op]
    assert names["cc-doorbell"] == 0
    if op == "deploy":
        assert (result.commit_us, result.cc_us) == (0.0, params.RDX_CC_EVENT_US)


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
    # Eight cores leave seven compile slots for the six charges of three
    # cold programs, so the relayed leg stages under a pending verdict.
    bed = make_testbed(
        n_hosts=3, cores_per_host=8, hooks=("ingress",), with_agents=False,
        config=config,
    )
    # d=2 over three targets: positions 0 and 1 are roots; position 2
    # is relayed through position 0.
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
    assert names["dispatch"] == 3  # every leg's stage fences in its own right
    relayed = result.reports[2]
    started = relayed.started_us
    assert ("dispatch", started) in log and ("wqe:read", started) in log
    assert relay_cpu.busy_us - busy == pytest.approx(params.RDX_DISPATCH_FAST_US)
    # The stage chain -- image and descriptor; staged under the
    # verifier's charge, the leg's bubble rises in the raise walk --
    # goes out the instant the dispatch ends.
    assert any(
        name == "wqe-chain:2"
        and now == pytest.approx(started + relayed.dispatch_us, abs=1e-9)
        for name, now in log
    )


# -- the stub rendezvous: once per uncertified layout --------------------------


def _rendezvous_us(codeflow, report) -> float:
    """What ``report``'s dispatch paid beyond the schedule's WQE prep."""
    return report.dispatch_us - codeflow.schedule.dispatch_us


def _base():
    return make_stress_program(400, seed=7, name="app")


def _delta_patch(bed):
    _inject(bed, _base())
    return bed.codeflow, _inject(bed, make_stress_variant(_base(), 5, name="app"))


def _cold_onto_a_same_layout_owner(bed):
    _inject(bed, _base())
    return bed.codeflow, _inject(bed, make_stress_program(300, seed=2, name="other"))


def _first_deploy(bed):
    return bed.codeflow, _inject(bed, _base())


def _after_rollback(bed):
    _inject(bed, _base())
    _inject(bed, make_stress_variant(_base(), 5, name="app"))
    bed.sim.run_process(bed.codeflow.rollback("app"))
    return bed.codeflow, _inject(bed, make_stress_variant(_base(), 6, name="app"))


def _after_reboot(bed):
    codeflow = bed.codeflow
    _inject(bed, _base())
    bed.sandbox.warm_reboot()
    codeflow.reset_after_reboot()
    bed.sim.run_process(codeflow.stamp_epoch(bed.control.epoch))
    return codeflow, _inject(bed, make_stress_variant(_base(), 5, name="app"))


def _after_adopt(bed):
    _inject(bed, _base())
    plane, codeflows = bed.sim.run_process(
        resume_control_plane(
            bed.cluster.control_host, bed.control.journal, bed.sandboxes
        )
    )
    bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
    assert codeflows[0].deployed["app"].layout is None
    report = bed.sim.run_process(
        plane.inject(
            codeflows[0], make_stress_variant(_base(), 5, name="app"), "ingress"
        )
    )
    return codeflows[0], report


def _after_a_moved_map(bed):
    """``stress_map`` comes back one chunk deeper, behind a decoy that
    took its old chunk: the same program now links at another layout."""
    codeflow, run = bed.codeflow, bed.sim.run_process
    mapper = make_stress_program(400, seed=5, with_map=True, name="mapper")
    state = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
    handle = run(codeflow.deploy_xstate(state))
    _inject(bed, mapper)
    run(codeflow.destroy_xstate(handle))
    run(codeflow.deploy_xstate(XStateSpec("decoy", MapType.ARRAY, 4, 8, 4)))
    moved = run(codeflow.deploy_xstate(state))
    assert moved.data_addr != handle.data_addr
    return codeflow, _inject(bed, mapper)


#: Case -> (what runs before the deploy under test, whether it pays).
RENDEZVOUS = {
    "delta-patch": (_delta_patch, False),
    "cold-onto-a-same-layout-owner": (_cold_onto_a_same_layout_owner, False),
    "first-deploy": (_first_deploy, True),
    "after-rollback": (_after_rollback, True),
    "after-reboot": (_after_reboot, True),
    "after-adopt": (_after_adopt, True),
    "after-a-moved-map": (_after_a_moved_map, True),
}


@pytest.mark.parametrize(
    "step, paid",
    [pytest.param(*case, id=name) for name, case in RENDEZVOUS.items()]
    + [
        pytest.param(
            _delta_patch, True, id="serial",
            marks=pytest.mark.arm(pipelined_deploy=False),
        )
    ],
)
def test_the_stub_rendezvous_is_paid_once_per_uncertified_layout(
    testbed, step, paid
):
    codeflow, report = step(testbed)
    assert codeflow.control_plane.link_cache_hits == 0  # every link is new
    assert _rendezvous_us(codeflow, report) == pytest.approx(
        params.RDX_STUB_RENDEZVOUS_US if paid else 0.0, abs=1e-9
    )

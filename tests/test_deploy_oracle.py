"""Deploy equivalence oracle.

How a deploy is organised inside :mod:`repro.core.codeflow` is an
implementation detail; what it does to the target, the allocator and
the simulated clock is not.  The table below was taken from the three
deploy bodies of PR 13 (commit 09041c8, regenerate with
``PYTHONPATH=src python tests/test_deploy_oracle.py``) and pins, per
arm and per step of one scripted sequence on a 1-host testbed, every
number a deploy reports and every piece of local state it leaves.

Two deliberate departures from that commit, both in the serial arm:

* its two fault rows carry the *fixed* ``bytes_live`` / ``slots_used``
  -- the serial body had no unwind, so at 09041c8 a failed image write
  leaked its 8192-byte extent and a failed descriptor write its slot
  too (the leaked values are kept as comments on those rows);
* its 256-byte descriptor write, which the serial body timed under no
  phase, now counts as ``write`` (:data:`SERIAL_DESCRIPTOR_WRITE_US`);
  ``total_us`` is unchanged.
"""

from dataclasses import replace
from typing import NamedTuple, Optional

import pytest

from repro.core.faults import _HookAction
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import DeployError, RdmaError
from repro.exp.harness import make_testbed
from repro.hb import checker
from repro.mem.layout import pack_qword
from repro.params import DEFAULT

ARMS = {
    "serial": replace(DEFAULT, pipelined_deploy=False, delta_deploy=False),
    "pipelined": replace(DEFAULT, pipelined_deploy=True, delta_deploy=False),
    "delta": replace(DEFAULT, pipelined_deploy=True, delta_deploy=True),
}
FALLBACK_REASONS = (
    "first-deploy", "no-baseline", "layout-changed", "size-changed",
    "past-break-even", "no-savings",
)
#: One 256-byte ``sync.write`` on the 1-host testbed; the only phase
#: number allowed to differ from commit 09041c8 (see module docstring).
SERIAL_DESCRIPTOR_WRITE_US = 2.72048


def _script():
    """(step name, program, retain_history, sabotage) in deploy order."""
    app = make_stress_program(818, seed=1, name="app")
    other = make_stress_program(818, seed=2, name="other")
    return [
        ("first", app, True, None),
        ("again", app, True, None),
        ("patch", make_stress_variant(app, 1), True, None),
        ("grown", make_stress_program(1300, seed=1, name="app"), True, None),
        ("takeover", other, True, None),
        ("noretain-1", make_stress_variant(other, 1), False, None),
        ("noretain-2", make_stress_variant(other, 2), False, None),
        ("conflict", make_stress_variant(other, 3), False, "hook"),
        ("heal", make_stress_variant(other, 4), False, None),
        ("patch-2", make_stress_variant(other, 5), False, None),
        ("image-fault", make_stress_variant(other, 6), False, "image"),
        ("descriptor-fault", make_stress_variant(other, 7), False, "descriptor"),
    ]


def _fail_first_write_in(manifest, region: str):
    """A one-shot fault hook: the first WRITE into the code region (an
    image or delta span) or the descriptor array never ACKs."""
    lo, size = {
        "image": (manifest.code_addr, manifest.code_bytes),
        "descriptor": (manifest.metadata_addr, manifest.metadata_slots * 256),
    }[region]
    hi = lo + size
    armed = [True]

    def hook(op, addr, data):
        if armed[0] and op == "write" and lo <= addr < hi:
            armed[0] = False
            return _HookAction(error=RdmaError("injected"))
        return None

    return hook


class Deployed(NamedTuple):
    """What one successful step reported and recorded."""

    phases: tuple  # (dispatch, link, write, commit, cc) in us
    total_us: float
    mode: str
    bytes_moved: int
    delta_chunks: int
    delta_base_version: int
    code_off: int  # offsets are relative to manifest.code_addr
    metadata_slot: int
    version: int
    history: list
    baseline_off: Optional[int]


class State(NamedTuple):
    """Local and cumulative state after a step, failed or not."""

    bytes_live: int
    slots_used: list
    tx_count: int
    cc_count: int
    fallbacks: tuple  # counts, in FALLBACK_REASONS order
    events: int


def _run_step(bed, program, retain_history, sabotage):
    codeflow = bed.codeflow
    manifest = codeflow.manifest
    sync = codeflow.sync
    hook_addr = bed.sandbox.hook_table.slot_addr("ingress")
    owner = codeflow._hook_owner.get("ingress")
    live = codeflow.deployed[owner].code_addr if owner else 0
    if sabotage == "hook":
        bed.sim.run_process(sync.write(hook_addr, pack_qword(0x7E57_0000)))
    elif sabotage:
        sync.fault_hook = _fail_first_write_in(manifest, sabotage)
    try:
        report = bed.sim.run_process(
            bed.control.inject(
                codeflow, program, "ingress", retain_history=retain_history
            )
        )
    except (DeployError, RdmaError) as err:
        outcome = type(err).__name__
    else:
        record = codeflow.deployed[program.name]
        outcome = Deployed(
            phases=tuple(round(v, 6) for v in report.phases().values()),
            total_us=round(report.total_us, 6),
            mode=report.mode,
            bytes_moved=report.bytes_moved,
            delta_chunks=report.delta_chunks,
            delta_base_version=report.delta_base_version,
            code_off=report.code_addr - manifest.code_addr,
            metadata_slot=record.metadata_slot,
            version=record.version,
            history=[addr - manifest.code_addr for addr in record.history],
            baseline_off=(
                None if record.baseline_addr is None
                else record.baseline_addr - manifest.code_addr
            ),
        )
    finally:
        sync.fault_hook = None
    if sabotage == "hook":
        bed.sim.run_process(sync.write(hook_addr, pack_qword(live)))
    fallbacks = []
    for reason in FALLBACK_REASONS:
        metric = bed.obs.registry.get("rdx.delta.fallback", reason=reason)
        fallbacks.append(int(metric.value) if metric is not None else 0)
    return outcome, State(
        bytes_live=codeflow.code_allocator.bytes_live,
        slots_used=sorted(codeflow._metadata_used),
        tx_count=sync.tx_count,
        cc_count=sync.cc_count,
        fallbacks=tuple(fallbacks),
        events=bed.sim.processed_events,
    )


def arm_steps(arm: str):
    """Drive the scripted sequence on ``arm``'s own testbed, a step per
    ``next``: yields (step, (outcome, state))."""
    bed = make_testbed(n_hosts=1, cores_per_host=4, config=ARMS[arm])
    for name, program, retain, sabotage in _script():
        yield name, _run_step(bed, program, retain, sabotage)
    checker.consume(bed.sim)  # the raw hook pokes are deliberate races


def run_arm(arm: str) -> dict:
    """The whole sequence under ``arm``: step -> (outcome, state)."""
    return dict(arm_steps(arm))


# fmt: off
ORACLE = {
    'serial': {
        'first': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 0, 0, 1, [], None),
            State(8192, [0], 1, 2, (0, 0, 0, 0, 0, 0), 79),
        ),
        'again': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 8192, 1, 2, [0], 0),
            State(16384, [1], 2, 3, (0, 0, 0, 0, 0, 0), 126),
        ),
        'patch': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 16384, 0, 3, [0, 8192], 8192),
            State(24576, [0], 3, 4, (0, 0, 0, 0, 0, 0), 176),
        ),
        'grown': (
            Deployed((25.0, 0.05, 3.74096, 4.45, 2.0), 40.66208, 'full', 13268, 0, 0, 24576, 1, 4, [0, 8192, 16384], 16384),
            State(37588, [1], 4, 5, (0, 0, 0, 0, 0, 0), 228),
        ),
        'takeover': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 37632, 0, 5, [0, 8192, 16384, 24576], 24576),
            State(45780, [0], 5, 6, (0, 0, 0, 0, 0, 0), 278),
        ),
        'noretain-1': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 45824, 1, 6, [0, 8192, 16384, 24576], 37632),
            State(53972, [1], 6, 7, (0, 0, 0, 0, 0, 0), 328),
        ),
        'noretain-2': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 54016, 0, 7, [0, 8192, 16384, 24576], 45824),
            State(62164, [0], 7, 8, (0, 0, 0, 0, 0, 0), 378),
        ),
        'conflict': (
            'DeployError',
            State(62164, [0], 8, 8, (0, 0, 0, 0, 0, 0), 440),
        ),
        'heal': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 62208, 1, 8, [0, 8192, 16384, 24576], 54016),
            State(62164, [1], 9, 9, (0, 0, 0, 0, 0, 0), 487),
        ),
        'patch-2': (
            Deployed((25.0, 0.05, 3.35536, 4.45, 2.0), 40.27648, 'full', 8448, 0, 0, 37632, 0, 9, [0, 8192, 16384, 24576], 62208),
            State(62164, [0], 10, 10, (0, 0, 0, 0, 0, 0), 537),
        ),
        'image-fault': (
            'RdmaError',
            State(62164, [0], 10, 10, (0, 0, 0, 0, 0, 0), 557),  # 09041c8: 70356
        ),
        'descriptor-fault': (
            'RdmaError',
            State(62164, [0], 10, 10, (0, 0, 0, 0, 0, 0), 582),  # 09041c8: 78548, [0, 1]
        ),
    },
    'pipelined': {
        'first': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 0, 0, 1, [], None),
            State(8192, [0], 1, 2, (0, 0, 0, 0, 0, 0), 71),
        ),
        'again': (
            Deployed((3.0, 0.2, 3.37584, 2.45, 2.0), 13.72648, 'full', 8448, 0, 0, 8192, 1, 2, [0], 0),
            State(16384, [1], 2, 3, (0, 0, 0, 0, 0, 0), 109),
        ),
        'patch': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 16384, 0, 3, [0, 8192], 8192),
            State(24576, [0], 3, 4, (0, 0, 0, 0, 0, 0), 151),
        ),
        'grown': (
            Deployed((11.0, 0.05, 3.76144, 2.45, 2.0), 21.96208, 'full', 13268, 0, 0, 24576, 1, 4, [0, 8192, 16384], 16384),
            State(37588, [1], 4, 5, (0, 0, 0, 0, 0, 0), 195),
        ),
        'takeover': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 37632, 0, 5, [0, 8192, 16384, 24576], 24576),
            State(45780, [0], 5, 6, (0, 0, 0, 0, 0, 0), 237),
        ),
        'noretain-1': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 45824, 1, 6, [0, 8192, 16384, 24576], 37632),
            State(53972, [1], 6, 7, (0, 0, 0, 0, 0, 0), 279),
        ),
        'noretain-2': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 54016, 0, 7, [0, 8192, 16384, 24576], 45824),
            State(62164, [0], 7, 8, (0, 0, 0, 0, 0, 0), 321),
        ),
        'conflict': (
            'DeployError',
            State(62164, [0], 7, 8, (0, 0, 0, 0, 0, 0), 375),
        ),
        'heal': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 62208, 1, 8, [0, 8192, 16384, 24576], 54016),
            State(62164, [1], 8, 9, (0, 0, 0, 0, 0, 0), 414),
        ),
        'patch-2': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 37632, 0, 9, [0, 8192, 16384, 24576], 62208),
            State(62164, [0], 9, 10, (0, 0, 0, 0, 0, 0), 456),
        ),
        'image-fault': (
            'RdmaError',
            State(62164, [0], 9, 10, (0, 0, 0, 0, 0, 0), 476),
        ),
        'descriptor-fault': (
            'RdmaError',
            State(62164, [0], 9, 10, (0, 0, 0, 0, 0, 0), 492),
        ),
    },
    'delta': {
        'first': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 0, 0, 1, [], None),
            State(8192, [0], 1, 2, (1, 0, 0, 0, 0, 0), 71),
        ),
        'again': (
            Deployed((3.0, 0.2, 3.37584, 2.45, 2.0), 13.72648, 'full', 8448, 0, 0, 8192, 1, 2, [0], 0),
            State(16384, [1], 2, 3, (1, 1, 0, 0, 0, 0), 109),
        ),
        'patch': (
            Deployed((11.0, 0.05, 2.7256, 2.45, 4.0), 22.92624, 'delta', 320, 1, 1, 0, 0, 3, [8192], 8192),
            State(16384, [0], 3, 5, (1, 1, 0, 0, 0, 0), 161),
        ),
        'grown': (
            Deployed((11.0, 0.05, 3.76144, 2.45, 2.0), 21.96208, 'full', 13268, 0, 0, 16384, 1, 4, [8192, 0], 0),
            State(29396, [1], 4, 6, (1, 1, 0, 1, 0, 0), 205),
        ),
        'takeover': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 29440, 0, 5, [8192, 0, 16384], 16384),
            State(37588, [0], 5, 7, (1, 1, 0, 1, 0, 1), 247),
        ),
        'noretain-1': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 37632, 1, 6, [8192, 0, 16384], 29440),
            State(45780, [1], 6, 8, (1, 1, 0, 2, 0, 1), 289),
        ),
        'noretain-2': (
            Deployed((11.0, 0.05, 2.7256, 2.45, 4.0), 22.92624, 'delta', 320, 1, 5, 29440, 0, 7, [8192, 0, 16384], 37632),
            State(45780, [0], 7, 10, (1, 1, 0, 2, 0, 1), 341),
        ),
        'conflict': (
            'DeployError',
            State(45780, [0], 7, 10, (1, 1, 0, 2, 0, 1), 394),
        ),
        'heal': (
            Deployed((11.0, 0.05, 3.37584, 2.45, 2.0), 21.57648, 'full', 8448, 0, 0, 45824, 1, 8, [8192, 0, 16384], 29440),
            State(45780, [1], 8, 11, (1, 2, 0, 2, 0, 1), 433),
        ),
        'patch-2': (
            Deployed((11.0, 0.05, 2.7256, 2.45, 4.0), 22.92624, 'delta', 320, 1, 7, 29440, 0, 9, [8192, 0, 16384], 45824),
            State(45780, [0], 9, 13, (1, 2, 0, 2, 0, 1), 485),
        ),
        'image-fault': (
            'RdmaError',
            State(45780, [0], 9, 13, (1, 2, 0, 2, 0, 1), 505),
        ),
        'descriptor-fault': (
            'RdmaError',
            State(45780, [0], 9, 13, (1, 3, 0, 2, 0, 1), 521),
        ),
    },
}
# fmt: on


def assert_matches_parent(arm: str, got: dict) -> None:
    want = ORACLE[arm]
    assert list(got) == list(want)
    for step, (outcome, state) in want.items():
        if arm == "serial" and isinstance(outcome, Deployed):
            dispatch, link, write, commit, cc = outcome.phases
            write = round(write + SERIAL_DESCRIPTOR_WRITE_US, 6)
            outcome = outcome._replace(
                phases=(dispatch, link, write, commit, cc)
            )
        assert got[step] == (outcome, state), f"{arm}/{step}"


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_scripted_sequence_matches_parent(arm):
    assert_matches_parent(arm, run_arm(arm))


def test_script_reaches_both_plans_and_every_unwind():
    """The sequence is only an oracle if it visits what it claims to."""
    delta = ORACLE["delta"]
    assert [
        step for step, (outcome, _) in delta.items()
        if isinstance(outcome, Deployed) and outcome.mode == "delta"
    ] == ["patch", "noretain-2", "patch-2"]
    # first-deploy, no-baseline, layout-changed, size-changed,
    # past-break-even, no-savings
    assert delta["descriptor-fault"][1].fallbacks == (1, 3, 0, 2, 0, 1)
    for arm in ARMS:
        rows = ORACLE[arm]
        assert rows["conflict"][0] == "DeployError"
        assert rows["image-fault"][0] == "RdmaError"
        assert rows["descriptor-fault"][0] == "RdmaError"
        # A failed deploy gives back every slot and byte it claimed
        # (a poisoned delta baseline is freed one commit later).
        for step in ("image-fault", "descriptor-fault"):
            assert rows[step][1].slots_used == rows["patch-2"][1].slots_used
            assert rows[step][1].bytes_live == rows["patch-2"][1].bytes_live


@pytest.fixture
def config(arm):
    """The ``testbed`` fixture builds on the parametrized arm."""
    return ARMS[arm]


def _inject(bed, program):
    return bed.sim.run_process(
        bed.control.inject(bed.codeflow, program, "ingress")
    )


@pytest.mark.parametrize("region", ["image", "descriptor"])
@pytest.mark.parametrize("arm", sorted(ARMS))
def test_failed_write_on_an_empty_target_leaks_nothing(arm, region, testbed):
    """The serial body had no unwind: at 09041c8 this left the extent
    (3012 B) allocated and, for the descriptor, the slot claimed."""
    codeflow = testbed.codeflow
    program = make_stress_program(300, seed=1, name="app")
    codeflow.sync.fault_hook = _fail_first_write_in(codeflow.manifest, region)
    with pytest.raises(RdmaError, match="injected"):
        _inject(testbed, program)
    codeflow.sync.fault_hook = None
    assert codeflow.code_allocator.bytes_live == 0
    assert codeflow._metadata_used == set()
    # Nothing leaked, so the retry lands where the first try would have.
    report = _inject(testbed, program)
    assert report.code_addr == codeflow.manifest.code_addr
    assert codeflow.deployed["app"].metadata_slot == 0


@pytest.mark.parametrize("arm", ["delta"])
def test_failed_delta_retires_and_forgets_its_baseline(arm, testbed):
    """A delta writes *into* the baseline: once a write may have landed
    the extent is neither a diff base nor a rollback target again."""
    codeflow = testbed.codeflow
    base = make_stress_program(300, seed=1, name="app")
    first = _inject(testbed, base)
    _inject(testbed, base)  # registers first's extent as the baseline
    record = codeflow.deployed["app"]
    assert record.baseline_addr == first.code_addr
    codeflow.sync.fault_hook = _fail_first_write_in(codeflow.manifest, "image")
    with pytest.raises(RdmaError, match="injected"):
        _inject(testbed, make_stress_variant(base, 1))
    codeflow.sync.fault_hook = None
    assert record.baseline_addr is None and record.baseline_image is None
    assert first.code_addr not in record.history
    assert codeflow._retired == [first.code_addr]
    assert codeflow._metadata_used == {record.metadata_slot}
    # The next deploy ships full, and its commit frees the retired extent.
    healed = _inject(testbed, make_stress_variant(base, 2))
    assert healed.mode == "full"
    assert codeflow.code_allocator.size_of(first.code_addr) is None
    assert codeflow.code_allocator.bytes_live == 2 * record.code_len


if __name__ == "__main__":
    print("ORACLE = {")
    for arm in ARMS:
        print(f"    {arm!r}: {{")
        for step, (outcome, state) in run_arm(arm).items():
            if isinstance(outcome, Deployed):
                outcome = f"Deployed{tuple(outcome)!r}"
            else:
                outcome = repr(outcome)
            print(f"        {step!r}: (\n            {outcome},")
            print(f"            State{tuple(state)!r},\n        ),")
        print("    },")
    print("}")

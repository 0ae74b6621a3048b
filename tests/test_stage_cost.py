"""Deterministic cost guard for where a broadcast's bytes move.

A pipelined broadcast leg stages before the bubble window opens: its
image, descriptor and body-span flushes land where no hook points, and
its bubble raise rides the tail of that chain.  The window -- from the
journal's ``bubbled`` phase to its ``deployed`` phase, after which only
the decision and the lower walk remain -- holds the flips alone: a
fenced commit CAS and the hook line's doorbell per target.  These tests
count what the QPs carry on either side of that line, so body bytes
cannot drift back into the window, and the stage walk keeps riding the
relays the way the hub-and-spoke raise once did not.

They also pin what the window and the hold cost a target's requests:
``bubble_hold_us`` runs from the *first* raise, ``bubble_window_us``
from the last, so their gap is how long Phase 1 kept early bubbles up.
"""

from dataclasses import replace

import pytest

from repro.core.broadcast import CodeFlowGroup
from repro.core.sync import RemoteSync
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed
from repro.params import DEFAULT
from repro.rdma.qp import QueuePair, WrOpcode

TREE = replace(
    DEFAULT, tree_broadcast=True, tree_degree=4, pipelined_deploy=True,
    obs_target_labels=False,
)
FLAT = replace(TREE, tree_broadcast=False)
#: The flat arm's N=16 window and hold: the flip and lower walks, and
#: the stage walk from the first staged leg on (46.87064 / 54.97448
#: when each leg deployed inside the window).
FLAT16_WINDOW_US = 26.60768
FLAT16_HOLD_US = 42.77776


def _traffic(config, n, monkeypatch):
    """One broadcast over ``n`` targets; returns (result, counts).

    ``counts`` is keyed by (phase, route, what): the epoch READs and
    stage chains posted before the journal's ``bubbled`` phase
    ("stage"), and every WR posted from then until its ``deployed``
    phase ("window"), by opcode -- a doorbell is an 8-byte WRITE to the
    target's doorbell word, anything else a WRITE is a body byte."""
    bed = make_testbed(
        n_hosts=n, cores_per_host=2, hooks=("ingress",),
        with_agents=False, seed=3, config=config,
    )
    direct = {id(cf.sync) for cf in bed.codeflows}
    direct_qps = {id(cf.sync.qp) for cf in bed.codeflows}
    doorbells = {cf.sandbox.control_addr + 24 for cf in bed.codeflows}
    counts = {}
    phase = ["before"]

    def count(key):
        counts[key] = counts.get(key, 0) + 1

    def route(sync):
        return "control" if id(sync) in direct else "relay"

    read, install = RemoteSync.read, RemoteSync.install
    post, post_batch = QueuePair.post_send, QueuePair.post_send_batch

    def spy_read(self, addr, length):
        if phase[0] == "stage" and addr == self.sandbox.epoch_addr:
            count(("stage", route(self), "epoch-read"))
        return read(self, addr, length)

    def spy_install(self, ops, qword_addr, *args, **kwargs):
        if phase[0] == "stage" and qword_addr is None:
            count(("stage", route(self), "stage-chain"))
        return install(self, ops, qword_addr, *args, **kwargs)

    def wr_kind(wr):
        if wr.opcode is WrOpcode.COMP_SWAP:
            return "cas"
        if wr.opcode is WrOpcode.RDMA_WRITE:
            if wr.remote_addr in doorbells and len(wr.data) == 8:
                return "doorbell"
            return "write"
        return wr.opcode.name.lower()

    def spy_post(self, wr):
        if phase[0] == "window":
            route = "control" if id(self) in direct_qps else "relay"
            count(("window", route, wr_kind(wr)))
        return post(self, wr)

    def spy_post_batch(self, wrs):
        if phase[0] == "window":
            route = "control" if id(self) in direct_qps else "relay"
            for wr in wrs:
                count(("window", route, wr_kind(wr)))
        return post_batch(self, wrs)

    journal = bed.control.journal
    record_phase = journal.phase

    def spy_phase(txn, name, *args, **kwargs):
        phase[0] = {"prepared": "stage", "bubbled": "window"}.get(name, "after")
        return record_phase(txn, name, *args, **kwargs)

    monkeypatch.setattr(RemoteSync, "read", spy_read)
    monkeypatch.setattr(RemoteSync, "install", spy_install)
    monkeypatch.setattr(QueuePair, "post_send", spy_post)
    monkeypatch.setattr(QueuePair, "post_send_batch", spy_post_batch)
    monkeypatch.setattr(journal, "phase", spy_phase)
    program = make_stress_program(150, seed=1, name="rc")
    result = bed.sim.run_process(
        CodeFlowGroup(bed.codeflows).broadcast([program] * n, "ingress")
    )
    assert all(outcome.ok for outcome in result.outcomes)
    return result, counts


@pytest.fixture(scope="module")
def tree64():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _traffic(TREE, 64, monkeypatch)


@pytest.fixture(scope="module")
def flat16():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _traffic(FLAT, 16, monkeypatch)


def _window(counts):
    return {
        (route, what): n
        for (phase, route, what), n in counts.items()
        if phase == "window"
    }


def test_tree_stages_ride_the_relays(tree64):
    """N=64, degree 4: the 4 roots stage (and raise) over the control
    plane's QPs, the other 60 over their parents' relay QPs."""
    _, counts = tree64
    stage = {key: n for key, n in counts.items() if key[0] == "stage"}
    assert stage == {
        ("stage", "control", "epoch-read"): 4,
        ("stage", "control", "stage-chain"): 4,
        ("stage", "relay", "epoch-read"): 60,
        ("stage", "relay", "stage-chain"): 60,
    }


def test_the_tree_window_moves_no_body_byte(tree64):
    """Inside the window each target gets one CAS and one doorbell --
    4 flips from the control plane, 60 down the relays -- and nothing
    else: no image, descriptor or bubble byte."""
    _, counts = tree64
    assert _window(counts) == {
        ("control", "cas"): 4,
        ("control", "doorbell"): 4,
        ("relay", "cas"): 60,
        ("relay", "doorbell"): 60,
    }


def test_flat_stages_and_flips_stay_on_the_control_plane(flat16):
    _, counts = flat16
    assert counts[("stage", "control", "stage-chain")] == 16
    assert _window(counts) == {("control", "cas"): 16, ("control", "doorbell"): 16}


def test_the_hold_is_the_window_plus_a_short_raise(tree64):
    """The first bubble up waits for the rest of the stage walk before
    the window starts; down the forest that wait is the two levels of
    stages below the roots (46.33 us), not 64 stages queued on the
    control RNIC.  Window 20.96 and hold 67.28 us (75.84 and 90.65
    when each leg deployed inside the window)."""
    result, _ = tree64
    assert result.started_us < result.first_raised_us <= result.bubble_raised_us
    assert result.bubble_hold_us == pytest.approx(
        result.bubble_lowered_us - result.first_raised_us
    )
    assert result.bubble_window_us < 25.0
    assert 0 < result.bubble_hold_us - result.bubble_window_us <= 50.0


def test_flat_window_and_hold(flat16):
    """Flat stages are the old spawn list; the window is the flips and
    the lowers, the hold adds the stage walk after the first leg."""
    result, _ = flat16
    assert result.bubble_window_us == pytest.approx(FLAT16_WINDOW_US)
    assert result.bubble_hold_us == pytest.approx(FLAT16_HOLD_US)

"""Deterministic cost guard for the bubble raise (BBU Phase 1).

A broadcast's raise walks the same forest as its deploys and lowers: a
root's bubble rises over the control plane's QP, a child's over its
forest parent's relay QP.  Each raise is one 8-byte epoch READ (the
fence) and one flag+doorbell chain.  These tests count which QPs carry
those during Phase 1, so the hub-and-spoke raise -- all N through the
control plane's RNIC, the O(N) term the relays exist to remove -- cannot
come back on the relay arms unnoticed, and flat stays flat.

They also pin what the raise costs a target's requests:
``bubble_hold_us`` runs from the *first* raise, ``bubble_window_us``
from the last, so their gap is how long Phase 1 kept early bubbles up.
"""

from dataclasses import replace

import pytest

from repro.core.broadcast import CodeFlowGroup
from repro.core.sync import RemoteSync
from repro.ebpf.stress import make_stress_program
from repro.exp.harness import make_testbed
from repro.mem.layout import pack_qword
from repro.params import DEFAULT

TREE = replace(
    DEFAULT, tree_broadcast=True, tree_degree=4, pipelined_deploy=True,
    obs_target_labels=False,
)
FLAT = replace(TREE, tree_broadcast=False)
#: The flat arm's N=16 window and hold, as the hub-and-spoke raise
#: schedules them; the forest raise must leave both where they are.
FLAT16_WINDOW_US = 46.87064
FLAT16_HOLD_US = 54.97448


def _raise_traffic(config, n, monkeypatch):
    """One broadcast over ``n`` targets; returns (result, counts), the
    counts keyed by (route, what) for the epoch READs and bubble-raise
    chains posted before the journal records the ``bubbled`` phase."""
    bed = make_testbed(
        n_hosts=n, cores_per_host=2, hooks=("ingress",),
        with_agents=False, seed=3, config=config,
    )
    direct = {id(cf.sync) for cf in bed.codeflows}
    counts = {}
    raising = [True]

    def count(sync, what):
        if raising[0]:
            route = "control" if id(sync) in direct else "relay"
            counts[route, what] = counts.get((route, what), 0) + 1

    read, write_batch = RemoteSync.read, RemoteSync.write_batch

    def spy_read(self, addr, length):
        if addr == self.sandbox.epoch_addr and length == 8:
            count(self, "epoch-read")
        return read(self, addr, length)

    def spy_write_batch(self, ops, note=None):
        if ops and ops[0] == (self.sandbox.bubble_addr, pack_qword(1)):
            count(self, "raise-chain")
        return write_batch(self, ops, note)

    journal = bed.control.journal
    phase = journal.phase

    def spy_phase(txn, name, *args, **kwargs):
        if name == "bubbled":
            raising[0] = False
        return phase(txn, name, *args, **kwargs)

    monkeypatch.setattr(RemoteSync, "read", spy_read)
    monkeypatch.setattr(RemoteSync, "write_batch", spy_write_batch)
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
        return _raise_traffic(TREE, 64, monkeypatch)


@pytest.fixture(scope="module")
def flat16():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _raise_traffic(FLAT, 16, monkeypatch)


def test_tree_raises_ride_the_relays(tree64):
    """N=64, degree 4: the 4 roots raise over the control plane's QPs,
    the other 60 over their parents' relay QPs (hub-and-spoke: 64 / 0)."""
    _, counts = tree64
    assert counts == {
        ("control", "epoch-read"): 4,
        ("control", "raise-chain"): 4,
        ("relay", "epoch-read"): 60,
        ("relay", "raise-chain"): 60,
    }


def test_flat_raises_stay_on_the_control_plane(flat16):
    _, counts = flat16
    assert counts == {
        ("control", "epoch-read"): 16,
        ("control", "raise-chain"): 16,
    }


def test_the_hold_is_the_window_plus_a_short_raise(tree64):
    """The first bubble up waits for the rest of Phase 1 before the
    window starts; down the forest that wait is a few levels of raises,
    not 64 raises queued on the control RNIC (40.52 us over the window
    with the hub-and-spoke raise; 14.80 us down the forest)."""
    result, _ = tree64
    assert result.started_us < result.first_raised_us <= result.bubble_raised_us
    assert result.bubble_hold_us == pytest.approx(
        result.bubble_lowered_us - result.first_raised_us
    )
    assert 0 < result.bubble_hold_us - result.bubble_window_us <= 20.0


def test_flat_hold_is_the_hub_and_spoke_raise(flat16):
    """Flat raises are the old spawn list: the first flush lands after
    one READ round trip and one chain, the 16 raises share the control
    RNIC, and the hold is what that schedule gives."""
    result, _ = flat16
    assert result.bubble_window_us == pytest.approx(FLAT16_WINDOW_US)
    assert result.bubble_hold_us == pytest.approx(FLAT16_HOLD_US)


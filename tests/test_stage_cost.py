"""Deterministic cost guard for where a broadcast's bytes move.

A pipelined broadcast leg stages before the bubble window opens: its
image, descriptor and body-span flushes land where no hook points.  A
leg that ships its Phase-0 image stages while the verifier still
charges, so its stage chain goes out bare; once the verdict is in, one
fenced walk raises the bubbles down the same forest, and each leg
flips -- a fenced commit CAS and the hook line's doorbell -- as soon as
its own raise flush landed.  A leg with no Phase-0 image (hub and
spoke) waits for the verdict, its raise rides the tail of its stage
chain, and a flip walk follows the stages.  The window -- from the
last raise's landing to the last lower's -- holds the flips not yet
posted and the lowers.  The lowers start as the last flip's CQE is
in, down the same forest, and each waits only for its own leg's
hook-line flush.  These tests count what the QPs carry on either side
of those instants, so body bytes cannot drift back into the window,
and the stage and raise walks keep riding the relays the way the
hub-and-spoke raise once did not.  They also time every post against
the end of the verifier's charge (the verdict gates the raise and the
flip, never the bytes) and each leg's flip against its own raise, and
its lower against its own hook-line flush.

And they pin what the window and the hold cost a target's requests:
``bubble_hold_us`` runs from the *first* raise, ``bubble_window_us``
from the last, so their gap is how long Phase 1 kept early bubbles up.
"""

from dataclasses import replace

import pytest

from repro.core.broadcast import CodeFlowGroup
from repro.core.control_plane import RdxControlPlane
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
SERIAL = replace(FLAT, pipelined_deploy=False)
#: The flat arm's N=16 window and hold: the flip and lower walks, and
#: the stage walk from the first staged leg on (26.60768 / 42.77776
#: when every bubble waited for every hook-line flush, 46.87064 /
#: 54.97448 when each leg deployed inside the window).
FLAT16_WINDOW_US = 24.60768
FLAT16_HOLD_US = 40.77776


def _traffic(config, n, monkeypatch):
    """One broadcast over ``n`` targets; returns (result, counts, times).

    ``counts`` is keyed by ("stage", route, what): the epoch READs,
    stage chains and raise chains posted from the broadcast's start up
    to the journal's ``bubbled`` phase.  ``times`` maps "verdict" to
    the instant the verifier's charge ended; "stage-chain", "cas" and
    "flag" to the sim times every stage chain, hook CAS and bubble-flag
    WRITE was posted at; "posts" to ``(time, route, what)`` of every WR
    -- a doorbell is an 8-byte WRITE to the target's doorbell word, a
    flag one to its bubble flag, any other WRITE a body byte; and
    "raised", "flipped", "settled" and "lowered" to ``{target:
    instant}`` of its raise flush landing, its hook CAS posting, its
    hook-line flush taking effect and its lowering flag WRITE
    posting."""
    bed = make_testbed(
        n_hosts=n, cores_per_host=2, hooks=("ingress",),
        with_agents=False, seed=3, config=config,
    )
    sim = bed.sim
    direct = {id(cf.sync) for cf in bed.codeflows}
    direct_qps = {id(cf.sync.qp) for cf in bed.codeflows}
    doorbells = {cf.sandbox.control_addr + 24 for cf in bed.codeflows}
    flags = {cf.sandbox.bubble_addr for cf in bed.codeflows}
    hooks = {cf._hook_addr("ingress") for cf in bed.codeflows}
    counts = {}
    times = {
        "stage-chain": [], "cas": [], "flag": [], "posts": [],
        "raised": {}, "flipped": {}, "settled": {}, "lowered": {},
    }
    phase = ["stage"]

    def count(key):
        counts[key] = counts.get(key, 0) + 1

    def route(sync):
        return "control" if id(sync) in direct else "relay"

    read, install = RemoteSync.read, RemoteSync.install
    charge = RdxControlPlane._charge
    flush_chained = RemoteSync.flush_chained
    post, post_batch = QueuePair.post_send, QueuePair.post_send_batch

    def spy_read(self, addr, length):
        if phase[0] == "stage" and addr == self.sandbox.epoch_addr:
            count(("stage", route(self), "epoch-read"))
        return read(self, addr, length)

    def spy_install(self, ops, qword_addr, *args, tail=(), **kwargs):
        if qword_addr is None and ops:
            times["stage-chain"].append(sim.now)
            if phase[0] == "stage":
                count(("stage", route(self), "stage-chain"))
        elif phase[0] == "stage" and tail and tail[0][0] in flags:
            count(("stage", route(self), "raise-chain"))
        return install(self, ops, qword_addr, *args, tail=tail, **kwargs)

    def spy_flush_chained(self, spans, waited=True):
        yield from flush_chained(self, spans, waited)
        if waited and spans[:1] and spans[0][0] in flags:
            times["raised"][self.sandbox.host.name] = sim.now
        if spans and spans[-1][0] in hooks:
            times["settled"][self.sandbox.host.name] = sim.now

    def spy_charge(self, stage, *args, **kwargs):
        yield from charge(self, stage, *args, **kwargs)
        if stage == "validate":
            times["verdict"] = sim.now

    def wr_kind(qp, wr):
        target = qp.remote.rnic.host.name
        if wr.opcode is WrOpcode.COMP_SWAP:
            times["cas"].append(sim.now)
            times["flipped"][target] = sim.now
            return "cas"
        if wr.opcode is WrOpcode.RDMA_WRITE:
            if wr.remote_addr in flags:
                times["flag"].append(sim.now)
                if not any(wr.data):
                    times["lowered"][target] = sim.now
                return "flag"
            if wr.remote_addr in doorbells and len(wr.data) == 8:
                return "doorbell"
            return "write"
        return wr.opcode.name.lower()

    def posted(qp, wrs):
        where = "control" if id(qp) in direct_qps else "relay"
        for wr in wrs:
            times["posts"].append((sim.now, where, wr_kind(qp, wr)))

    def spy_post(self, wr):
        posted(self, [wr])
        return post(self, wr)

    def spy_post_batch(self, wrs):
        posted(self, wrs)
        return post_batch(self, wrs)

    journal = bed.control.journal
    record_phase = journal.phase

    def spy_phase(txn, name, *args, **kwargs):
        if name == "bubbled":
            phase[0] = "after"
        return record_phase(txn, name, *args, **kwargs)

    monkeypatch.setattr(RemoteSync, "read", spy_read)
    monkeypatch.setattr(RemoteSync, "install", spy_install)
    monkeypatch.setattr(RemoteSync, "flush_chained", spy_flush_chained)
    monkeypatch.setattr(RdxControlPlane, "_charge", spy_charge)
    monkeypatch.setattr(QueuePair, "post_send", spy_post)
    monkeypatch.setattr(QueuePair, "post_send_batch", spy_post_batch)
    monkeypatch.setattr(journal, "phase", spy_phase)
    program = make_stress_program(150, seed=1, name="rc")
    result = sim.run_process(
        CodeFlowGroup(bed.codeflows).broadcast([program] * n, "ingress")
    )
    assert all(outcome.ok for outcome in result.outcomes)
    sim.run()  # a verifier's charge that outlived the broadcast ends
    return result, counts, times


@pytest.fixture(scope="module")
def tree64():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _traffic(TREE, 64, monkeypatch)


@pytest.fixture(scope="module")
def flat16():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _traffic(FLAT, 16, monkeypatch)


def _window(result, times):
    """``{(route, what): WRs}`` posted inside the bubble window."""
    window = {}
    for at, route, what in times["posts"]:
        if result.bubble_raised_us <= at <= result.bubble_lowered_us:
            window[route, what] = window.get((route, what), 0) + 1
    return window


def test_tree_stages_ride_the_relays(tree64):
    """N=64, degree 4: the 4 roots stage over the control plane's QPs,
    the other 60 over their parents' relay QPs -- and then, the verdict
    in, raise down the same forest, each raise fenced again: 4 control
    and 60 relay epoch READs and raise chains on top of the stages'."""
    _, counts, _ = tree64
    stage = {key: n for key, n in counts.items() if key[0] == "stage"}
    assert stage == {
        ("stage", "control", "epoch-read"): 4 + 4,
        ("stage", "control", "stage-chain"): 4,
        ("stage", "control", "raise-chain"): 4,
        ("stage", "relay", "epoch-read"): 60 + 60,
        ("stage", "relay", "stage-chain"): 60,
        ("stage", "relay", "raise-chain"): 60,
    }


def test_the_verdict_gates_the_raise_and_the_flip_not_the_bytes(tree64):
    """Every stage chain goes out under the verifier's charge; every
    hook CAS and every bubble-flag WRITE at or after its end."""
    _, _, times = tree64
    verdict = times["verdict"]
    assert len(times["stage-chain"]) == 64
    assert max(times["stage-chain"]) < verdict
    assert len(times["cas"]) == 64 and min(times["cas"]) >= verdict
    assert len(times["flag"]) == 2 * 64 and min(times["flag"]) >= verdict


def test_each_leg_flips_once_its_own_bubble_is_up(tree64):
    """BBU's two orderings, per target: its hook CAS posts no earlier
    than its own raise flush landed -- a CQE alone is no proof the
    target CPU buffers -- and no bubble drops before every hook has
    flipped.  Nothing more: the first flips post while later raises
    are still on their way down the forest."""
    _, _, times = tree64
    raised, flipped, lowered = times["raised"], times["flipped"], times["lowered"]
    assert len(raised) == len(flipped) == len(lowered) == 64
    assert all(raised[target] <= flipped[target] for target in flipped)
    assert max(flipped.values()) <= min(lowered.values())
    assert min(flipped.values()) < max(raised.values())


def test_each_bubble_drops_once_its_own_hook_line_is_flushed(tree64):
    """A target runs unbuffered only once the flush of its own hook
    line took effect; nothing more.  The decision needs the CAS answers
    alone, so the forest's roots lower while the leaves' flushes are
    still on their way."""
    _, _, times = tree64
    settled, lowered = times["settled"], times["lowered"]
    assert len(settled) == len(lowered) == 64
    assert all(settled[target] <= lowered[target] for target in lowered)
    assert min(lowered.values()) < max(settled.values())


def test_the_tree_window_moves_no_body_byte(tree64):
    """The window opens as the raises of the forest's 44 leaves land,
    all at one instant: it holds those leaves' flips (a CAS and a
    doorbell each, down the relays) and the 64 lowers (a flag and a
    doorbell each) -- no image or descriptor byte.  The 20 inner legs
    flipped under the raise walk, before the window."""
    result, _, times = tree64
    assert _window(result, times) == {
        ("relay", "cas"): 44,
        ("relay", "doorbell"): 44 + 60,
        ("relay", "flag"): 60,
        ("control", "doorbell"): 4,
        ("control", "flag"): 4,
    }


def test_flat_stages_and_flips_stay_on_the_control_plane(flat16):
    """No Phase-0 image to ship: the stages wait for the verdict, each
    raise rides its stage chain's tail, and the window holds every flip
    and every lower."""
    result, counts, times = flat16
    assert counts[("stage", "control", "stage-chain")] == 16
    assert ("stage", "control", "raise-chain") not in counts
    assert min(times["stage-chain"]) >= times["verdict"]
    assert _window(result, times) == {
        ("control", "cas"): 16,
        ("control", "doorbell"): 16 + 16,
        ("control", "flag"): 16,
    }


def test_the_serial_window_moves_no_body_byte(monkeypatch):
    """The serial arm stages outside the window too -- one signaled
    WRITE per op, the raise flag after the descriptor, then a blocking
    flush -- so its window holds what a flat one's does: per target a
    commit CAS, the hook line's doorbell, the lowering flag and its
    doorbell (each doorbell posted alone, by its ``rdx_cc_event``)."""
    result, _, times = _traffic(SERIAL, 4, monkeypatch)
    assert _window(result, times) == {
        ("control", "cas"): 4,
        ("control", "doorbell"): 4 + 4,
        ("control", "flag"): 4,
    }


def test_the_hold_is_the_window_plus_a_short_raise(tree64):
    """The first bubble up waits for the rest of the raise walk before
    the window starts; down the forest that wait is the two levels of
    raises below the roots (10.80 us), not 64 raises queued on the
    control RNIC.  Window 13.05 and hold 23.86 us (15.05 / 25.86 when
    every bubble waited for every hook-line flush, 20.96 / 31.76 when
    the flips waited for the whole raise walk, 67.28 hold when each
    raise rode its stage chain and the stages waited for the verdict,
    90.65 when each leg deployed inside the window)."""
    result, _, _ = tree64
    assert result.started_us < result.first_raised_us <= result.bubble_raised_us
    assert result.bubble_hold_us == pytest.approx(
        result.bubble_lowered_us - result.first_raised_us
    )
    assert result.bubble_window_us == pytest.approx(13.05448)
    assert result.bubble_hold_us == pytest.approx(23.85832)


def test_flat_window_and_hold(flat16):
    """Flat stages are the old spawn list; the window is the flips and
    the lowers, the hold adds the stage walk after the first leg."""
    result, _, _ = flat16
    assert result.bubble_window_us == pytest.approx(FLAT16_WINDOW_US)
    assert result.bubble_hold_us == pytest.approx(FLAT16_HOLD_US)


def test_a_registry_hit_raises_on_the_stage_tail(monkeypatch):
    """A first broadcast walks the forest three times -- stage, the
    raise walk whose legs flip as they land, lower -- and so does a
    second of the same, already-verified program, which finds no
    verdict pending: each raise rides its stage chain's tail and a
    flip walk follows.  Tree N=256, degree 4: the first totals 441.36
    us (443.36 when every bubble waited for every hook-line flush,
    452.22 when a flip walk followed the raise walk); the second 69.58,
    hold 48.74 us (71.58 / 50.74 with every flush waited for; a raise
    walk after the stages would read 95.19 us total).  All six walks
    ride one forest: its 256 - 4 edges are every relay QP the group
    builds (504 when the lowers walked a reversed forest of their
    own)."""
    bed = make_testbed(
        n_hosts=256, cores_per_host=4, hooks=("ingress",),
        with_agents=False, seed=1, config=TREE,
    )
    group = CodeFlowGroup(bed.codeflows)
    program = make_stress_program(402, seed=1, name="hit")
    kinds = []
    walk = CodeFlowGroup._walk

    def spy_walk(self, plan, members, kind, visit):
        kinds.append(kind)
        return walk(self, plan, members, kind, visit)

    monkeypatch.setattr(CodeFlowGroup, "_walk", spy_walk)
    first = bed.sim.run_process(
        group.broadcast([program] * 256, "ingress", verify=False)
    )
    second = bed.sim.run_process(
        group.broadcast([program] * 256, "ingress", verify=False)
    )
    assert first.total_us == pytest.approx(441.36344)
    assert len(group._relay_syncs) == 256 - 4
    assert kinds == ["stage", "raise", "lower"] + ["stage", "flip", "lower"]
    assert second.total_us == pytest.approx(69.58496)
    assert second.bubble_hold_us == pytest.approx(48.74064)
    assert second.bubble_window_us == pytest.approx(24.60768)
    assert len(group._relay_syncs) == 256 - 4

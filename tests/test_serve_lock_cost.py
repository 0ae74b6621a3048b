"""Cost guard: a serve ticket's target lock and its worker guard the
install, not the compile.

A ticket whose program has no verdict yet validates and JITs in its own
process, holding neither a worker nor a target lock (§3.2: both are
target-independent), then returns to its class queue.  A worker
probes the warm pool and queues on the target's
:class:`~repro.core.control_plane.InstallLock` only for link -> stage
-> commit CAS -> pin admit; the settle (the hook-line flush and the
record keeping) runs after the release.  The checks:

* a pinned hotpatch submitted while a cold compile runs on its target
  finishes in probe + install time, not after the compile -- also when
  the compiling ticket was popped by the only worker;
* with every control core but one compiling, a hotpatch's dispatch
  still takes ``RDX_DISPATCH_FAST_US``: compiles hold at most
  ``cores - 1`` cores;
* two cold tickets on one target compile concurrently, and their lock
  intervals -- grant to commit CAS's answer -- never overlap; the
  second is granted under the first's settle yet posts no WR before
  that settle recorded, also when the flush outlasts its dispatch;
* a hotpatch overtakes bulk tickets queued at the install gate;
* a cold ticket whose hook owner was linked at the same layout holds
  the lock for its link, dispatch and install -- no stub rendezvous,
  no flush -- so a hotpatch queued behind it waits that long only;
* with two tenants interleaved on one target, each tenant's
  ``rdx.tenant.install_visible_us`` series counts only its own deploys;
* a settle records its own install's layout and tenant, though the
  next install was granted -- its layout linked -- while it ran, and
  a tenant labels its own ticket's deploy only, not a later unlocked
  one on that target;
* two hotpatches granted back to back leave the race checker nothing
  to report, unflushed execs included.
"""

import pytest

from repro import params
from repro.core.broadcast import CodeFlowGroup
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program
from repro.hb import checker
from repro.serve import DeployService, default_classes

pytestmark = pytest.mark.arm(
    pipelined_deploy=True, obs=True, obs_target_labels=True
)


def _service(bed, workers):
    service = DeployService(
        bed.control, classes=default_classes(queue_depth=32), workers=workers
    )
    service.register("pager", "hotpatch")
    service.register("dev", "standard")
    service.register("whale", "bulk")
    return service


def _until(sim, condition, limit_us=10_000.0):
    """Process body: poll every half microsecond until ``condition()``;
    fails once ``limit_us`` has passed."""
    deadline = sim.now + limit_us
    while not condition():
        assert sim.now < deadline, "condition never held"
        yield 0.5


def _prewarmed(bed, service):
    hot = make_stress_program(60, seed=6, name="hot")
    assert bed.sim.run_process(service.warm_pool.prewarm(bed.codeflow, hot))
    return hot


def _intervals(bed, monkeypatch, owner, name, log):
    """Log ``(start, end)`` of every call of process body ``owner.name``."""
    inner = getattr(owner, name)

    def timed(*args, **kwargs):
        start = bed.sim.now
        result = yield from inner(*args, **kwargs)
        log.append((start, bed.sim.now))
        return result

    monkeypatch.setattr(owner, name, timed)


def _hotpatch_behind_a_compile(bed, workers):
    """An idle hotpatch, then a cold ticket and, 50 us into its
    compile, the same pinned hotpatch: ``(alone, patch, compiling)``."""
    service = _service(bed, workers=workers)
    hot = _prewarmed(bed, service)
    cold = make_stress_program(300, seed=3, name="cold")
    service.start()

    def body():
        alone = service.submit("pager", bed.codeflow, hot, "ingress")
        yield alone.done
        compiling = service.submit("dev", bed.codeflow, cold, "egress")
        validations = bed.control.validations_run
        yield 50.0  # the 300-insn verifier charge is still running
        assert bed.control.validations_run == validations
        patch = service.submit("pager", bed.codeflow, hot, "ingress")
        for ticket in (patch, compiling):
            yield ticket.done
        return alone, patch, compiling

    alone, patch, compiling = bed.sim.run_process(body())
    assert alone.report.warm and patch.report.warm and compiling.completed
    return alone, patch, compiling


def test_hotpatch_does_not_wait_for_a_cold_compile(testbed):
    alone, patch, compiling = _hotpatch_behind_a_compile(testbed, workers=2)
    # Probe + install (~8.3 us), exactly as on an idle target -- not
    # the ~300 us left of the compile.
    assert patch.service_us == pytest.approx(alone.service_us)
    assert patch.service_us < 20.0
    assert patch.finished_us < compiling.finished_us


def test_a_compile_holds_no_worker(testbed):
    alone, patch, compiling = _hotpatch_behind_a_compile(testbed, workers=1)
    # The one worker went back to its loop when the compile started:
    # the hotpatch neither queues for it nor pays for the compile.
    assert patch.queue_wait_us == 0.0
    assert patch.service_us == pytest.approx(alone.service_us)
    assert patch.service_us < 20.0
    assert patch.finished_us < compiling.finished_us


def test_hotpatch_dispatches_on_the_core_no_compile_takes(testbed):
    bed = testbed
    service = _service(bed, workers=2)
    hot = _prewarmed(bed, service)
    cpu = bed.control.host.cpu
    service.start()

    def body():
        # Three cold programs: six charges for the three compile slots.
        compiling = [
            service.submit(
                "dev", bed.codeflow,
                make_stress_program(300, seed=seed, name=f"cold{seed}"), "egress",
            )
            for seed in (3, 4, 5)
        ]
        yield 50.0
        assert cpu.in_use >= cpu.cores - 1  # compiles fill every core they may
        patch = service.submit("pager", bed.codeflow, hot, "ingress")
        for ticket in [patch] + compiling:
            yield ticket.done
        return patch, compiling

    patch, compiling = bed.sim.run_process(body())
    assert patch.report.warm and all(ticket.completed for ticket in compiling)
    assert patch.report.dispatch_us == pytest.approx(params.RDX_DISPATCH_FAST_US)
    assert patch.finished_us < min(ticket.finished_us for ticket in compiling)


def _lock_intervals(bed, monkeypatch, lock, log):
    """Log ``(grant, release)`` of every request ``lock`` granted."""
    request, release = lock.request, lock.release
    granted = {}

    def logged_request(priority=0):
        grant = request(priority)
        grant.callbacks.append(
            lambda event: granted.setdefault(event, bed.sim.now)
        )
        return grant

    def logged_release(grant):
        if grant in granted:
            log.append((granted.pop(grant), bed.sim.now))
        release(grant)

    monkeypatch.setattr(lock, "request", logged_request)
    monkeypatch.setattr(lock, "release", logged_release)


def _two_cold_installs(bed, monkeypatch, flush_delay_us=0.0):
    """Two cold tickets on one target, two workers: logs the compiles,
    the flips (each returns at its commit CAS's answer), the lock's
    holds, the settles' records and the install chains' posts."""
    codeflow = bed.codeflow
    sync = codeflow.sync
    service = _service(bed, workers=2)
    log = {name: [] for name in ("prepares", "flips", "held", "recorded", "posted")}
    _intervals(bed, monkeypatch, bed.control, "prepare_for", log["prepares"])
    _intervals(bed, monkeypatch, codeflow, "flip_prog", log["flips"])
    _lock_intervals(
        bed, monkeypatch, service._target_lock(codeflow.sandbox.name), log["held"]
    )
    bookkeep, install, flush = codeflow._bookkeep, sync.install, sync.flush_chained

    def logged_bookkeep(*args):
        log["recorded"].append(bed.sim.now)
        bookkeep(*args)

    def logged_install(*args, **kwargs):
        log["posted"].append(bed.sim.now)
        return (yield from install(*args, **kwargs))

    def slowed_flush(spans, waited=True):
        yield flush_delay_us
        yield from flush(spans, waited)

    monkeypatch.setattr(codeflow, "_bookkeep", logged_bookkeep)
    monkeypatch.setattr(sync, "install", logged_install)
    if flush_delay_us:
        monkeypatch.setattr(sync, "flush_chained", slowed_flush)
    service.start()
    programs = [
        make_stress_program(300, seed=seed, name=f"cold{seed}")
        for seed in (3, 4)
    ]

    def body():
        tickets = [
            service.submit("dev", codeflow, program, hook)
            for program, hook in zip(programs, ("ingress", "egress"))
        ]
        for ticket in tickets:
            yield ticket.done
        return tickets

    tickets = bed.sim.run_process(body())
    assert all(ticket.completed for ticket in tickets)
    assert len(log["held"]) == len(log["recorded"]) == len(log["posted"]) == 2
    return log


def test_cold_tickets_compile_together_and_install_one_at_a_time(
    testbed, monkeypatch
):
    log = _two_cold_installs(testbed, monkeypatch)
    # Each install re-enters prepare_for for a registry hit, at zero
    # length; the compiles are the intervals that take time.
    prepares = [(start, end) for start, end in log["prepares"] if end > start]
    assert len(prepares) == testbed.control.compiles_run == 2
    # The compiles overlap ...
    assert max(start for start, _ in prepares) < min(end for _, end in prepares)
    # ... the installs hold the lock one at a time, each up to its
    # commit CAS's answer ...
    first, second = sorted(log["held"])
    assert first[1] <= second[0]
    assert [end for _, end in sorted(log["held"])] == [
        end for _, end in sorted(log["flips"])
    ]
    # ... so the second is granted while the first's settle runs, yet
    # posts no WR before that settle has recorded.
    assert second[0] < log["recorded"][0] <= log["posted"][1]


def test_the_next_install_joins_a_settle_that_outlasts_its_dispatch(
    testbed, monkeypatch
):
    # A flush 10 us slower than the next install's dispatch, as a fuzzed
    # delay makes it: the join, not the timing, keeps the order.
    log = _two_cold_installs(testbed, monkeypatch, flush_delay_us=10.0)
    _, second = sorted(log["held"])
    assert second[0] < log["recorded"][0] <= log["posted"][1]


def test_hotpatch_overtakes_bulk_at_the_install_gate(testbed):
    bed = testbed
    service = _service(bed, workers=4)
    hot = _prewarmed(bed, service)
    bulk_prog = make_stress_program(2_000, seed=4, name="bulk")
    lock = service._target_lock(bed.codeflow.sandbox.name)
    service.start()

    def body():
        bulk = [
            service.submit("whale", bed.codeflow, bulk_prog, "egress")
            for _ in range(3)
        ]
        # One compile for the three; then one installs, two queue.
        yield from _until(bed.sim, lambda: lock.queue_len == 2)
        patch = service.submit("pager", bed.codeflow, hot, "ingress")
        for ticket in [patch] + bulk:
            yield ticket.done
        return patch, bulk

    patch, bulk = bed.sim.run_process(body())
    assert patch.completed and all(ticket.completed for ticket in bulk)
    assert bed.control.prepare_coalesced == 2
    queued = sorted(ticket.finished_us for ticket in bulk)[1:]
    assert patch.finished_us < queued[0]


def test_a_same_layout_cold_install_holds_the_lock_without_a_rendezvous(
    testbed, monkeypatch
):
    bed = testbed
    codeflow = bed.codeflow
    service = _service(bed, workers=2)
    hot = _prewarmed(bed, service)
    granted = {}
    link_code = codeflow.link_code

    def linked_under_the_lock(binary, parent_span=None):
        # Only a cold ticket links; it does so the instant its lock is
        # granted.  The second one's hotpatch queues behind it.
        if "owner" in granted:
            granted["cold"] = bed.sim.now
            granted["patch"] = service.submit("pager", codeflow, hot, "ingress")
        return (yield from link_code(binary, parent_span))

    monkeypatch.setattr(codeflow, "link_code", linked_under_the_lock)
    service.start()

    def body():
        alone = service.submit("pager", codeflow, hot, "ingress")
        yield alone.done
        owner = service.submit(
            "dev", codeflow, make_stress_program(300, seed=3, name="cold"), "egress"
        )
        yield owner.done
        granted["owner"] = owner
        cold = service.submit(
            "dev", codeflow, make_stress_program(300, seed=4, name="cold"), "egress"
        )
        yield cold.done
        yield granted["patch"].done
        return alone, cold, granted["patch"]

    alone, cold, patch = bed.sim.run_process(body())
    report = cold.report
    assert not report.warm and report.mode == "full"
    assert report.dispatch_us == pytest.approx(params.RDX_DISPATCH_FAST_US)
    # The lock is held for link + dispatch + install, up to the commit
    # CAS's answer -- the hook-line flush runs after the release -- and
    # the hotpatch installs the instant it is released.
    held = report.link_us + report.dispatch_us + report.write_us
    assert patch.finished_us == pytest.approx(
        granted["cold"] + held + patch.report.total_us
    )
    # Its idle service time plus what is left of that hold after its
    # own warm probe (~6.0 us; a hold through the flush left ~8.0, one
    # paying the rendezvous too ~16).
    assert patch.service_us <= alone.service_us + 6.1


def test_each_tenant_series_counts_only_its_own_installs(testbed):
    bed = testbed
    service = _service(bed, workers=2)
    hot = _prewarmed(bed, service)
    cold = make_stress_program(300, seed=3, name="cold")
    service.start()

    def body():
        # dev's ticket compiles while pager's installs on the same
        # target; dev installs last.
        compiling = service.submit("dev", bed.codeflow, cold, "egress")
        yield 50.0
        patch = service.submit("pager", bed.codeflow, hot, "ingress")
        for ticket in (patch, compiling):
            yield ticket.done
        return patch, compiling

    patch, compiling = bed.sim.run_process(body())
    assert patch.finished_us < compiling.finished_us
    for tenant in ("dev", "pager"):
        series = bed.obs.histogram("rdx.tenant.install_visible_us", tenant=tenant)
        assert series.count == 1, tenant


def test_a_settle_records_what_its_own_install_staged(testbed, monkeypatch):
    bed = testbed
    codeflow = bed.codeflow
    service = _service(bed, workers=2)
    # Two layouts: a helper call resolves through the GOT, the stress
    # program resolves nothing.
    helper = BpfProgram(
        Asm().call(7).mov_imm(op.R0, 5).exit_().build(), name="helper"
    )
    hot = make_stress_program(60, seed=6, name="hot")
    layouts = {}
    for program in (helper, hot):
        assert bed.sim.run_process(service.warm_pool.prewarm(codeflow, program))
        layouts[program.name] = codeflow._last_link_key[1:]
    assert layouts["helper"] != layouts["hot"]
    linked = []
    link_pinned = codeflow.link_pinned

    def linked_under_a_settle(pin):
        settling = codeflow._settling
        linked.append((pin.link_key[1:], settling is not None and settling.is_alive))
        return link_pinned(pin)

    monkeypatch.setattr(codeflow, "link_pinned", linked_under_a_settle)
    service.start()

    def body():
        tickets = [
            service.submit("dev", codeflow, helper, "egress"),
            service.submit("pager", codeflow, hot, "ingress"),
        ]
        for ticket in tickets:
            yield ticket.done
        return tickets

    tickets = bed.sim.run_process(body())
    assert all(ticket.completed and ticket.report.warm for ticket in tickets)
    # The hotpatch installs first; dev is granted and links its own
    # layout while the hotpatch's settle still runs.
    assert linked == [(layouts["hot"], False), (layouts["helper"], True)]
    # Each record carries its own link's layout, and each tenant's
    # series counts its own deploy only.
    for program in (helper, hot):
        assert codeflow.deployed[program.name].layout == layouts[program.name]
    for tenant in ("dev", "pager"):
        series = bed.obs.histogram("rdx.tenant.install_visible_us", tenant=tenant)
        assert series.count == 1, tenant


def test_a_tenant_labels_its_own_tickets_deploy_only(testbed2):
    """A pager hotpatch on one target, then a 2-target broadcast that
    takes no install lock: its legs are unowned, the first target's
    included, not counted under the last ticket's tenant."""
    bed = testbed2
    service = _service(bed, workers=1)
    hot = _prewarmed(bed, service)
    service.start()
    legs = [make_stress_program(60, seed=8 + i, name=f"leg{i}") for i in range(2)]

    def body():
        ticket = service.submit("pager", bed.codeflow, hot, "ingress")
        yield ticket.done
        yield from CodeFlowGroup(bed.codeflows).broadcast(legs, "egress")

    bed.sim.run_process(body())
    counts = {
        tenant: bed.obs.histogram(
            "rdx.tenant.install_visible_us", tenant=tenant
        ).count
        for tenant in ("pager", "")
    }
    assert counts == {"pager": 1, "": 2}


@pytest.mark.arm(hb_check=True)
def test_back_to_back_hotpatches_are_ordered_for_the_race_checker(testbed):
    bed = testbed
    codeflow = bed.codeflow
    service = _service(bed, workers=2)
    first = _prewarmed(bed, service)
    second = make_stress_program(60, seed=7, name="hot2")
    assert bed.sim.run_process(service.warm_pool.prewarm(codeflow, second))
    service.start()

    def body():
        tickets = [
            service.submit("pager", codeflow, program, "ingress")
            for program in (first, second)
        ]
        for ticket in tickets:
            yield ticket.done
        return tickets

    tickets = bed.sim.run_process(body())
    assert all(ticket.completed for ticket in tickets)
    # The second install's stage starts under the first one's flush.
    assert tickets[1].report.started_us < tickets[0].finished_us
    ctx = bytes(256)
    result, _ = bed.sandbox.run_hook("ingress", ctx)
    assert result.r0 == Interpreter().run(second.insns, ctx).r0
    # Its chain still follows that flush: no race, no unflushed exec.
    report = checker.check_sim(bed.sim, check_unflushed_exec=True)
    assert report.events and report.clean, checker.format_findings(report.findings)

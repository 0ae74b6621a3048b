"""Happens-before race checker: recorder helpers, graph, detectors.

Three layers of coverage:

* unit tests over :class:`TraceRecorder` helpers and hand-crafted
  ``hb.*`` event lists (graph edges, each detector's bug class);
* instrumentation tests driving the real sync layer with checking on
  (per-WR post ranges, selective signaling);
* schedule tests running the known-bad interleavings end to end and
  the PR 4 reconciler orphan-detach regression reframed as an HB
  violation.
"""

from __future__ import annotations

import pytest

from repro.ebpf.stress import make_stress_program
from repro.errors import SandboxCrash
from repro.exp import hb_schedules
from repro.exp.harness import make_testbed
from repro.hb import checker
from repro.hb.detect import detect_races
from repro.hb.events import HbEvent, extract, txn_note
from repro.hb.graph import HbGraph
from repro.sim.trace import TraceRecorder


# -- TraceRecorder helpers (satellite: overlap filter + since) -------------


class TestRecorderHelpers:
    def test_filter_address_range_overlap(self):
        trace = TraceRecorder()
        trace.record(1.0, "hb.land", addr=0x1000, length=0x100)
        trace.record(2.0, "hb.land", addr=0x1100, length=0x100)  # adjacent
        trace.record(3.0, "hb.land", addr=0x10F0, length=0x20)  # straddles
        trace.record(4.0, "other", note="no addr")
        hits = list(trace.filter(address_range=(0x1000, 0x1100)))
        assert [e.time_us for e in hits] == [1.0, 3.0]

    def test_filter_address_range_default_length_one(self):
        trace = TraceRecorder()
        trace.record(1.0, "hb.exec", addr=0x2000)  # no length key
        assert list(trace.filter(address_range=(0x2000, 0x2001)))
        assert not list(trace.filter(address_range=(0x2001, 0x3000)))

    def test_filter_range_composes_with_category(self):
        trace = TraceRecorder()
        trace.record(1.0, "hb.land", addr=0x1000, length=8)
        trace.record(2.0, "hb.post", addr=0x1000, length=8)
        hits = list(trace.filter("hb.land", address_range=(0x1000, 0x1008)))
        assert [e.category for e in hits] == ["hb.land"]

    def test_since_returns_suffix_in_order(self):
        trace = TraceRecorder()
        for t in range(10):
            trace.record(float(t), "ev", i=t)
        tail = trace.since(7.0)
        assert [e.data["i"] for e in tail] == [7, 8, 9]
        assert trace.since(99.0) == []
        assert len(trace.since(0.0)) == 10


# -- hand-crafted event lists ----------------------------------------------


def _ev(seq, etype, **data):
    return HbEvent(seq, float(seq), etype, data)


def _write(seq, qp, addr, length, wr_id=None, **extra):
    return _ev(
        seq, "land", qp=qp, target="t0", kind="WRITE", addr=addr,
        length=length, wr_id=wr_id if wr_id is not None else seq, **extra,
    )


class TestGraphEdges:
    def test_same_qp_sq_fifo_orders_lands(self):
        graph = HbGraph([_write(0, qp=1, addr=0, length=8),
                         _write(1, qp=1, addr=100, length=8)])
        assert graph.happens_before(graph.events[0], graph.events[1])

    def test_cross_qp_lands_are_concurrent(self):
        graph = HbGraph([_write(0, qp=1, addr=0, length=8),
                         _write(1, qp=2, addr=100, length=8)])
        assert graph.concurrent(graph.events[0], graph.events[1])

    def test_signaled_completion_orders_subsequent_posts(self):
        # land(wr=7) -> comp(wr=7) -> post(wr=8) -> land(wr=8):
        # the completion is the ordering point even across bodies.
        events = [
            _write(0, qp=1, addr=0, length=8, wr_id=7),
            _ev(1, "comp", qp=1, wr_id=7, status="ok"),
            _ev(2, "post", qp=1, target="t0", kind="WRITE", addr=100,
                length=8, wr_id=8),
            _write(3, qp=1, addr=100, length=8, wr_id=8),
        ]
        graph = HbGraph(events)
        assert graph.happens_before(events[0], events[2])
        assert graph.happens_before(events[1], events[3])

    def test_unsignaled_wr_has_no_completion_edge(self):
        # No comp event between the two QPs' activity: a post on qp 2
        # is NOT ordered behind qp 1's land no matter the wall clock.
        events = [
            _write(0, qp=1, addr=0, length=8),
            _ev(1, "post", qp=2, target="t0", kind="WRITE", addr=0,
                length=8, wr_id=9),
            _write(2, qp=2, addr=0, length=8, wr_id=9),
        ]
        graph = HbGraph(events)
        assert graph.concurrent(events[0], events[2])

    def test_lock_release_orders_next_acquire(self):
        events = [
            _ev(0, "lock", qp=1, target="t0", op="acquire", addr=0x40,
                token="a"),
            _write(1, qp=1, addr=0x80, length=8),
            _ev(2, "lock", qp=1, target="t0", op="release", addr=0x40,
                token="a"),
            _ev(3, "lock", qp=2, target="t0", op="acquire", addr=0x40,
                token="b"),
            _write(4, qp=2, addr=0x80, length=8),
        ]
        graph = HbGraph(events)
        # The critical-section write on qp 1 is ordered before the
        # write under the next holder's lock on qp 2.
        assert graph.happens_before(events[1], events[4])

    def test_epoch_fence_orders_old_epoch_effects(self):
        events = [
            _write(0, qp=1, addr=0x100, length=8, epoch=1),
            _ev(1, "land", qp=2, target="t0", kind="CAS", addr=0x8,
                length=8, wr_id=50, label="epoch", value=2, success=True),
        ]
        graph = HbGraph(events)
        assert graph.happens_before(events[0], events[1])

    def test_reads_from_installer_orders_exec(self):
        events = [
            _ev(0, "land", qp=1, target="t0", kind="WRITE", addr=0x20,
                length=8, wr_id=3, value=0x9000),
            _ev(1, "exec", target="t0", hook_addr=0x20, pointer=0x9000,
                addr=0x9000, length=64),
        ]
        graph = HbGraph(events)
        assert graph.happens_before(events[0], events[1])


class TestDetectorsSynthetic:
    def test_unordered_write_write_overlap(self):
        graph = HbGraph([_write(0, qp=1, addr=0x1000, length=0x100),
                         _write(1, qp=2, addr=0x1080, length=0x100)])
        findings = detect_races(graph)
        assert [f.kind for f in findings] == ["unordered-write-write"]
        assert findings[0].range == (0x1080, 0x1100)
        assert findings[0].first.seq == 0 and findings[0].second.seq == 1

    def test_ordered_writes_are_clean(self):
        graph = HbGraph([_write(0, qp=1, addr=0x1000, length=0x100),
                         _write(1, qp=1, addr=0x1080, length=0x100)])
        assert detect_races(graph) == []

    def test_disjoint_ranges_are_clean(self):
        graph = HbGraph([_write(0, qp=1, addr=0x1000, length=0x10),
                         _write(1, qp=2, addr=0x2000, length=0x10)])
        assert detect_races(graph) == []

    def test_torn_exec_on_write_racing_exec(self):
        events = [
            _write(0, qp=1, addr=0x9000, length=0x200),
            _ev(1, "exec", target="t0", hook_addr=0x20, pointer=0x9000,
                addr=0x9000, length=0x200),
        ]
        # No reads-from edge: the exec observed a pointer nobody in
        # the trace installed, racing the in-flight body write.
        findings = detect_races(HbGraph(events))
        assert [f.kind for f in findings] == ["torn-exec"]

    def test_bubble_label_specializes_kind(self):
        events = [
            _write(0, qp=1, addr=0x10, length=8, label="bubble"),
            _write(1, qp=2, addr=0x10, length=8, label="bubble"),
        ]
        findings = detect_races(HbGraph(events))
        assert [f.kind for f in findings] == ["bubble-race"]

    def test_atomic_vs_atomic_is_serialized(self):
        events = [
            _ev(0, "land", qp=1, target="t0", kind="CAS", addr=0x8,
                length=8, wr_id=1, value=1, success=True),
            _ev(1, "land", qp=2, target="t0", kind="FADD", addr=0x8,
                length=8, wr_id=2, value=1, success=True),
        ]
        assert detect_races(HbGraph(events)) == []

    def test_failed_cas_is_not_an_effect(self):
        events = [
            _write(0, qp=1, addr=0x8, length=8),
            _ev(1, "land", qp=2, target="t0", kind="CAS", addr=0x8,
                length=8, wr_id=2, success=False),
        ]
        assert detect_races(HbGraph(events)) == []

    def test_commit_before_body(self):
        events = [
            _ev(0, "post", qp=2, target="t0", kind="CAS", addr=0x20,
                length=8, wr_id=9, txn=5, pub_addr=0x9000, pub_len=0x100),
            _ev(1, "land", qp=2, target="t0", kind="CAS", addr=0x20,
                length=8, wr_id=9, txn=5, pub_addr=0x9000, pub_len=0x100,
                value=0x9000, success=True),
            _write(2, qp=1, addr=0x9000, length=0x100, txn=5),
        ]
        findings = detect_races(HbGraph(events))
        kinds = [f.kind for f in findings]
        assert "commit-before-body" in kinds
        finding = findings[kinds.index("commit-before-body")]
        assert finding.first.seq == 2 and finding.second.seq == 1

    def test_body_before_commit_is_clean(self):
        events = [
            _write(0, qp=1, addr=0x9000, length=0x100, txn=5),
            _ev(1, "comp", qp=1, wr_id=0, status="ok"),
            _ev(2, "post", qp=1, target="t0", kind="CAS", addr=0x20,
                length=8, wr_id=9, txn=5, pub_addr=0x9000, pub_len=0x100),
            _ev(3, "land", qp=1, target="t0", kind="CAS", addr=0x20,
                length=8, wr_id=9, txn=5, value=0x9000, success=True),
        ]
        assert detect_races(HbGraph(events)) == []

    def test_stale_epoch_write_after_fence(self):
        events = [
            _ev(0, "land", qp=2, target="t0", kind="CAS", addr=0x8,
                length=8, wr_id=1, label="epoch", value=3, success=True),
            _write(1, qp=1, addr=0x100, length=8, epoch=2),
        ]
        findings = detect_races(HbGraph(events))
        assert [f.kind for f in findings] == ["stale-epoch-write"]

    def test_current_epoch_write_is_clean(self):
        events = [
            _ev(0, "land", qp=2, target="t0", kind="CAS", addr=0x8,
                length=8, wr_id=1, label="epoch", value=3, success=True),
            _write(1, qp=1, addr=0x100, length=8, epoch=3),
        ]
        assert detect_races(HbGraph(events)) == []


# -- instrumentation over the real stack -----------------------------------


@pytest.mark.arm(hb_check=True)
class TestInstrumentation:
    def test_batch_posts_carry_ranges_and_selective_signaling(self, config):
        bed = make_testbed(n_hosts=1, cores_per_host=2, config=config)
        sandbox = bed.sandboxes[0]
        assert sandbox.ctx_manifest is not None
        base = sandbox.ctx_manifest.code_addr
        ops = [(base, b"a" * 64), (base + 64, b"b" * 32),
               (base + 96, b"c" * 8)]
        start = len(bed.obs.recorder.events)  # skip testbed setup
        bed.sim.run_process(bed.codeflow.sync.write_batch(ops))
        events = extract(list(bed.obs.recorder.events)[start:])
        checker.consume(bed.sim)  # clean teardown under RDX_HB_CHECK=1

        posts = [e for e in events if e.etype == "post"]
        assert [(e.addr, e.length) for e in posts] == [
            (base, 64), (base + 64, 32), (base + 96, 8)
        ]
        assert [e.get("signaled") for e in posts] == [False, False, True]
        chains = {e.get("chain") for e in posts}
        assert len(chains) == 1 and None not in chains  # one doorbell
        comps = [
            e for e in events
            if e.etype == "comp" and e.get("chain") in chains
        ]
        assert len(comps) == 1 and comps[0].get("chained") == 3

    def test_deploy_tags_body_and_commit_with_txn(self, config):
        bed = make_testbed(n_hosts=1, cores_per_host=2, config=config)
        program = make_stress_program(120, seed=3, name="hbtag")
        bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )
        events = extract(bed.obs.recorder)
        checker.consume(bed.sim)

        commits = [
            e for e in events
            if e.etype == "land" and e.kind == "CAS"
            and e.get("pub_addr") is not None
        ]
        assert commits, "commit CAS should carry a publishes range"
        txn = commits[-1].get("txn")
        body = [
            e for e in events
            if e.etype == "land" and e.kind == "WRITE" and e.get("txn") == txn
        ]
        assert body, "body writes should share the commit's txn id"

    def test_clean_deploy_and_exec_has_no_findings(self, config):
        bed = make_testbed(n_hosts=1, cores_per_host=2, config=config)
        program = make_stress_program(120, seed=4, name="hbok")
        bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )
        bed.sandboxes[0].run_hook("ingress", bytes(256))
        report = checker.consume(bed.sim)
        assert report.events > 0
        assert report.clean, checker.format_findings(report.findings)

    def test_truncated_trace_is_not_reported_clean(self):
        trace = TraceRecorder(max_events=2)
        trace.record(1.0, "hb.land", qp=1, target="t0", kind="WRITE",
                     addr=0, length=8, wr_id=1)
        trace.record(2.0, "hb.land", qp=1, target="t0", kind="WRITE",
                     addr=8, length=8, wr_id=2)
        trace.record(3.0, "hb.land", qp=1, target="t0", kind="WRITE",
                     addr=16, length=8, wr_id=3)
        report = checker.check_recorder(trace)
        assert report.truncated and not report.clean
        assert report.findings == []


# -- known-bad schedules end to end ----------------------------------------


class TestSchedules:
    def test_clean_schedule(self):
        result = hb_schedules._schedule_clean_deploy(seed=0)
        assert result.ok and not result.findings

    def test_reordered_commit_fires(self):
        result = hb_schedules._schedule_reordered_commit(seed=0)
        assert "commit-before-body" in result.kinds
        finding = result.findings[0]
        assert finding.first.seq != finding.second.seq
        lo, hi = finding.range
        assert lo < hi  # names the published range

    def test_fenceless_stale_writer_fires(self):
        result = hb_schedules._schedule_fenceless_stale_writer(seed=0)
        assert "stale-epoch-write" in result.kinds

    def test_torn_install_fires(self):
        result = hb_schedules._schedule_torn_install(seed=0)
        assert "torn-exec" in result.kinds

    def test_bubble_race_fires(self):
        result = hb_schedules._schedule_bubble_race(seed=0)
        assert "bubble-race" in result.kinds

    @pytest.mark.arm(hb_check=True)
    def test_reconciler_orphan_detach_regression(self, config):
        """PR 4 regression, reframed as an ordering violation.

        The recovery reconciler detaches orphan images and releases
        their pages for reuse.  Detaching while the data path still
        executes the image is exactly a WRITE/EXEC race on the reused
        range: a redeploy that lands fresh code over the orphan's
        address must be HB-after the last exec that observed the old
        pointer -- there is no such edge, and the checker says so.
        """
        bed = make_testbed(n_hosts=1, cores_per_host=2, config=config)
        sim = bed.sim
        sandbox = bed.sandboxes[0]
        program = make_stress_program(300, seed=9, name="orphan")
        sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        record = bed.codeflow.deployed[program.name]

        # Reconciler-style reuse: scrub + rewrite the orphan's range
        # through its own QP while the hook pointer still references it.
        scrubber = hb_schedules.sibling_sync(bed, sandbox)
        sim.spawn(
            scrubber.write(record.code_addr, b"\x00" * record.code_len),
            name="orphan-detach",
        )
        sim.run(until=sim.now + 2.0)  # detach in flight, partially landed
        try:
            sandbox.run_hook("ingress", bytes(256))
        except SandboxCrash:
            pass
        sandbox.crashed = False
        sim.run(until=sim.now + 10_000)

        report = checker.consume(sim)
        kinds = [f.kind for f in report.findings]
        assert "torn-exec" in kinds
        finding = report.findings[kinds.index("torn-exec")]
        lo, hi = finding.range
        assert lo >= record.code_addr
        assert hi <= record.code_addr + record.code_len


class TestTxnNote:
    def test_txn_note_mints_unique_ids(self):
        a, b = txn_note(), txn_note()
        assert a["txn"] != b["txn"]
        c = txn_note(publishes=(0x9000, 0x80))
        assert c["pub_addr"] == 0x9000 and c["pub_len"] == 0x80

"""Tests for the multi-tenant deploy service (repro.serve).

Covers the warm linked-image pool (hit semantics, warm-reboot
invalidation, LRU, prewarm), admission control (every shed reason
counted, backpressure, the no-silent-drops ledger), the serve
telemetry segment (one-sided scrape, torn retry, zero service CPU),
and the QoS satellites: atomic token-bucket reservation and snapshot
reporting.
"""

from dataclasses import replace

import pytest

from repro.core.faults import FaultInjector, FaultKind
from repro.core.qos import QosScheduler, TenantQuota, _TokenBucket
from repro.core.xstate import XStateSpec
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.maps import MapType
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import ReproError, SecurityError, VerifierError
from repro.exp.harness import make_testbed
from repro.exp.serve_workload import ServeWorkloadSpec, run_serve_workload
from repro.params import DEFAULT
from repro.serve import (
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_STOPPED,
    SHED_TENANT_QUOTA,
    SHED_UNKNOWN_TENANT,
    DeployService,
    PriorityClass,
    WarmLinkedImagePool,
    default_classes,
    scrape_serve,
)
from repro.sim.core import Simulator


# ---------------------------------------------------------------------------
# Satellite: atomic token-bucket reservation
# ---------------------------------------------------------------------------


class TestTokenBucketReserve:
    def test_reserve_debits_immediately(self, sim):
        bucket = _TokenBucket(sim, rate_per_s=1e6, burst=10)  # 1 byte/us
        assert bucket.reserve(10) == 0.0  # burst covers it
        # Balance is now 0: the next reservation waits for refill.
        assert bucket.reserve(40) == pytest.approx(40.0)
        # And the one after that queues *behind* the first deficit --
        # the debit happened even though nobody waited yet.
        assert bucket.reserve(40) == pytest.approx(80.0)

    def test_delay_for_is_a_pure_peek(self, sim):
        bucket = _TokenBucket(sim, rate_per_s=1e6, burst=10)
        assert bucket.delay_for(50) == pytest.approx(40.0)
        assert bucket.delay_for(50) == pytest.approx(40.0)  # unchanged
        assert bucket.reserve(50) == pytest.approx(40.0)  # the real debit

    def test_concurrent_reservers_serialize_at_rate(self, testbed):
        """The PR's race: two deploys sneaking under one balance.

        With the old peek-then-take two-step both would observe the
        full burst and pay no throttle.  With atomic reservation the
        second inject must wait out the first one's deficit.
        """
        bed = testbed
        qos = QosScheduler(bed.control, wire_slots=2)
        qos.register_tenant(
            TenantQuota("t", rate_bytes_per_s=1e6, burst_bytes=800)
        )
        program = make_stress_program(100, seed=1)  # 800 bytes

        def deploy():
            yield from qos.inject(
                "t", bed.codeflow, program, "ingress", retain_history=False
            )

        bed.sim.spawn(deploy(), name="first")
        bed.sim.spawn(deploy(), name="second")
        bed.sim.run()
        # First rode the burst; second reserved behind it: 800 bytes
        # at 1 byte/us = 800us of throttle, charged exactly once.
        assert qos.usage["t"].deploys == 2
        assert qos.usage["t"].throttled_us == pytest.approx(800.0)


# ---------------------------------------------------------------------------
# Satellite: usage reporting returns snapshots
# ---------------------------------------------------------------------------


class TestQosReporting:
    @pytest.fixture
    def qos(self, testbed):
        qos = QosScheduler(testbed.control)
        qos.register_tenant(
            TenantQuota("t", rate_bytes_per_s=1e9, burst_bytes=1e6)
        )
        return testbed, qos

    def _deploy(self, bed, qos, seed=1):
        program = make_stress_program(100, seed=seed)
        bed.sim.run_process(
            qos.inject("t", bed.codeflow, program, "ingress",
                       retain_history=False)
        )

    def test_tenant_report_is_a_snapshot(self, qos):
        bed, qos = qos
        self._deploy(bed, qos)
        window1 = qos.tenant_report()
        window1["t"].deploys = 99  # mutating the copy...
        assert qos.usage["t"].deploys == 1  # ...not the accumulator
        self._deploy(bed, qos, seed=2)
        window2 = qos.tenant_report()
        assert window2["t"].deploys == 2
        # The earlier snapshot did not move underneath the caller.
        assert window1["t"].bytes_injected == window2["t"].bytes_injected / 2

    def test_reset_usage_closes_the_window(self, qos):
        bed, qos = qos
        self._deploy(bed, qos)
        final = qos.reset_usage()
        assert final["t"].deploys == 1
        assert qos.usage["t"].deploys == 0
        assert qos.tenant_report()["t"].bytes_injected == 0.0

    def test_throttle_hint_unknown_tenant(self, qos):
        _bed, qos = qos
        with pytest.raises(SecurityError):
            qos.throttle_hint("ghost", 100)


# ---------------------------------------------------------------------------
# The warm linked-image pool
# ---------------------------------------------------------------------------


def _service(bed, classes=None, workers=2, **pool_kwargs):
    pool = WarmLinkedImagePool(bed.control, **pool_kwargs)
    service = DeployService(
        bed.control, classes=classes, workers=workers, warm_pool=pool
    )
    return service


@pytest.mark.arm(pipelined_deploy=True)  # the warm path rides the WR chain
class TestWarmPool:
    def test_second_deploy_is_a_warm_hit(self, testbed):
        """Popularity admission: cold deploy #1 admits, #2 rides warm."""
        bed = testbed
        pool = WarmLinkedImagePool(bed.control, admit_after=1).attach()
        program = make_stress_program(300, seed=3)

        def timed():
            started = bed.sim.now
            report = yield from bed.control.inject(
                bed.codeflow, program, "ingress"
            )
            return bed.sim.now - started, report

        cold_us, cold = bed.sim.run_process(timed())
        assert not cold.warm
        assert len(pool) == 1
        link_hits = bed.control.link_cache_hits
        registry_hits = bed.control.cache_hits
        warm_us, warm = bed.sim.run_process(timed())
        assert warm.warm
        assert pool.hits == 1
        # The whole cold pipeline was skipped: neither prepare's
        # registry nor the link cache saw any traffic.
        assert bed.control.link_cache_hits == link_hits
        assert bed.control.cache_hits == registry_hits
        # And end to end (validate+JIT+link avoided) it is far cheaper.
        assert warm_us * 2 < cold_us

    def test_warm_hit_preserves_execution(self, testbed):
        """A warm image must run; a content change must never hit."""
        bed = testbed
        pool = WarmLinkedImagePool(bed.control, admit_after=1).attach()
        program = make_stress_program(200, seed=11)
        bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )
        report = bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )
        assert report.warm
        assert bed.sandbox.run_hook("ingress", b"\x00" * 256) is not None
        # The pool key is the program *tag* -- a content hash -- so a
        # patched variant (same name, different imm) can never be
        # served stale bytes: it misses and takes the cold path.
        patched = make_stress_variant(program, 7, name=program.name)
        report = bed.sim.run_process(
            bed.control.inject(bed.codeflow, patched, "ingress")
        )
        assert not report.warm
        assert pool.miss_reasons.get("absent", 0) >= 1

    def test_warm_reboot_layout_change_misses(self, testbed):
        """Address churn invalidates: same contract as the link cache.

        A decoy XState pushes ``stress_map`` deeper into the
        scratchpad; after a warm reboot only ``stress_map`` comes
        back, reusing the decoy's old address.  The pool must *miss*
        (reason ``layout-changed``) -- serving the resident image
        would patch a stale map address.
        """
        bed = testbed
        codeflow = bed.codeflow
        pool = WarmLinkedImagePool(bed.control, admit_after=1).attach()
        program = make_stress_program(600, seed=5, with_map=True,
                                      name="mapper")
        decoy = XStateSpec("decoy", MapType.ARRAY, 4, 8, 4)
        state = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
        bed.sim.run_process(codeflow.deploy_xstate(decoy))
        bed.sim.run_process(codeflow.deploy_xstate(state))
        old_addr = codeflow.scratchpad.by_name("stress_map").data_addr
        bed.sim.run_process(bed.control.inject(codeflow, program, "ingress"))
        assert len(pool) == 1

        bed.sandbox.warm_reboot()
        codeflow.reset_after_reboot()
        bed.sim.run_process(codeflow.stamp_epoch(bed.control.epoch))
        bed.sim.run_process(codeflow.deploy_xstate(state))
        assert codeflow.scratchpad.by_name("stress_map").data_addr != old_addr

        report = bed.sim.run_process(
            bed.control.inject(codeflow, program, "ingress")
        )
        assert not report.warm
        assert pool.miss_reasons.get("layout-changed") == 1
        # The re-linked post-reboot image was admitted alongside; a
        # redeploy on the *new* layout is warm again.
        report = bed.sim.run_process(
            bed.control.inject(codeflow, program, "ingress")
        )
        assert report.warm

    def test_warm_hit_never_crosses_map_geometry(self, testbed):
        """A warm image is only as good as the verdict behind it.

        Companion of ``test_registry_hit_never_crosses_map_geometry``.
        ``stress_map`` is redeployed *at the same address* with 2-byte
        values instead of 8, so the GOT fingerprint still matches; the
        program reads 4 bytes of the value.  A pool keyed on ``(tag,
        arch, fingerprint)`` alone served the image verified against
        the old map and skipped validation entirely.
        """
        bed = testbed
        codeflow = bed.codeflow
        pool = WarmLinkedImagePool(bed.control, admit_after=1).attach()
        wide = XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4)
        narrow = XStateSpec("stress_map", MapType.ARRAY, 4, 2, 4)
        handle = bed.sim.run_process(codeflow.deploy_xstate(wide))
        program = make_stress_program(300, seed=1, with_map=True)
        bed.sim.run_process(bed.control.inject(codeflow, program, "ingress"))
        assert len(pool) == 1

        bed.sim.run_process(codeflow.destroy_xstate(handle))
        shrunk = bed.sim.run_process(codeflow.deploy_xstate(narrow))
        assert shrunk.data_addr == handle.data_addr
        process = bed.sim.spawn(
            bed.control.inject(codeflow, program, "ingress")
        )
        bed.sim.run()
        with pytest.raises(VerifierError, match=r"outside value_size=2"):
            _ = process.value
        assert pool.hits == 0

        # The old geometry back at the same address: warm again.
        bed.sim.run_process(codeflow.destroy_xstate(shrunk))
        bed.sim.run_process(codeflow.deploy_xstate(wide))
        report = bed.sim.run_process(
            bed.control.inject(codeflow, program, "ingress")
        )
        assert report.warm

    def test_lru_eviction_at_cap(self, testbed):
        bed = testbed
        pool = WarmLinkedImagePool(bed.control, cap=2, admit_after=1).attach()
        programs = [
            make_stress_program(200, seed=20 + i, name=f"evict{i}")
            for i in range(3)
        ]
        for program in programs:
            bed.sim.run_process(
                bed.control.inject(bed.codeflow, program, "ingress")
            )
        assert len(pool) == 2
        assert pool.evictions == 1
        # The oldest entry went; deploying it again is a miss.
        report = bed.sim.run_process(
            bed.control.inject(bed.codeflow, programs[0], "ingress")
        )
        assert not report.warm

    def test_prewarm_makes_first_deploy_warm(self, testbed):
        bed = testbed
        pool = WarmLinkedImagePool(bed.control).attach()
        program = make_stress_program(300, seed=9)
        assert bed.sim.run_process(pool.prewarm(bed.codeflow, program))
        report = bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )
        assert report.warm
        assert pool.hits == 1

    def test_invalidate_counts_evictions(self, testbed):
        bed = testbed
        pool = WarmLinkedImagePool(bed.control, admit_after=1).attach()
        program = make_stress_program(200, seed=13)
        bed.sim.run_process(
            bed.control.inject(bed.codeflow, program, "ingress")
        )
        assert pool.invalidate(tag=program.tag()) == 1
        assert pool.evictions == 1
        assert len(pool) == 0


# ---------------------------------------------------------------------------
# Admission control: every rejection is counted
# ---------------------------------------------------------------------------


def _tiny_classes(**overrides):
    base = dict(
        rate_bytes_per_s=1e9, burst_bytes=1e9, queue_depth=2,
        tenant_rate_bytes_per_s=1e9, tenant_burst_bytes=1e9,
        max_pending_per_tenant=8,
    )
    base.update(overrides)
    return (PriorityClass("only", priority=0, **base),)


class TestAdmission:
    def test_unknown_tenant_shed(self, testbed):
        service = _service(testbed)
        service.start()
        program = make_stress_program(100, seed=1)
        ticket = service.submit("ghost", testbed.codeflow, program, "ingress")
        assert not ticket.accepted
        assert ticket.shed_reason == SHED_UNKNOWN_TENANT
        assert service.admission.shed[SHED_UNKNOWN_TENANT] == 1

    def test_queue_full_shed(self, testbed):
        service = _service(testbed, classes=_tiny_classes(queue_depth=2))
        service.register("t", "only")
        service.running = True  # queue only: no workers draining
        program = make_stress_program(100, seed=1)
        verdicts = [
            service.submit("t", testbed.codeflow, program, "ingress")
            for _ in range(4)
        ]
        assert [t.accepted for t in verdicts] == [True, True, False, False]
        assert service.admission.shed[SHED_QUEUE_FULL] == 2

    def test_tenant_quota_shed(self, testbed):
        service = _service(
            testbed,
            classes=_tiny_classes(queue_depth=16, max_pending_per_tenant=2),
        )
        service.register("t", "only")
        service.register("other", "only")
        service.running = True
        program = make_stress_program(100, seed=1)
        verdicts = [
            service.submit("t", testbed.codeflow, program, "ingress")
            for _ in range(3)
        ]
        assert [t.shed_reason for t in verdicts] == [
            None, None, SHED_TENANT_QUOTA,
        ]
        # The cap is per tenant, not per queue: others still get in.
        assert service.submit(
            "other", testbed.codeflow, program, "ingress"
        ).accepted

    def test_rate_limited_shed(self, testbed):
        classes = (
            PriorityClass(
                "only", priority=0,
                rate_bytes_per_s=1e6, burst_bytes=100,  # ~nothing
                queue_depth=16,
                tenant_rate_bytes_per_s=1e9, tenant_burst_bytes=1e9,
                max_throttle_us=50.0,
            ),
        )
        service = _service(testbed, classes=classes)
        service.register("t", "only")
        service.running = True
        program = make_stress_program(500, seed=1)  # 4KB >> 100B + 50us
        ticket = service.submit("t", testbed.codeflow, program, "ingress")
        assert ticket.shed_reason == SHED_RATE_LIMITED
        assert service.admission.shed[SHED_RATE_LIMITED] == 1

    def test_stop_sheds_queued_as_stopped(self, testbed):
        service = _service(testbed, classes=_tiny_classes(queue_depth=8))
        service.register("t", "only")
        service.running = True
        program = make_stress_program(100, seed=1)
        tickets = [
            service.submit("t", testbed.codeflow, program, "ingress")
            for _ in range(3)
        ]
        assert service.stop() == 3
        assert service.admission.shed[SHED_STOPPED] == 3
        assert all(t.shed_reason == SHED_STOPPED for t in tickets)
        # Post-stop intake is shed too, not dropped.
        late = service.submit("t", testbed.codeflow, program, "ingress")
        assert late.shed_reason == SHED_STOPPED

    def test_backpressure_blocks_instead_of_shedding(self, testbed):
        """submit_wait parks on the space event; nothing is shed."""
        bed = testbed
        service = _service(bed, classes=_tiny_classes(queue_depth=1),
                           workers=1)
        service.register("t", "only")
        service.start()
        program = make_stress_program(200, seed=1)
        tickets = []

        def producer():
            for _ in range(4):
                ticket = yield from service.submit_wait(
                    "t", bed.codeflow, program, "ingress"
                )
                tickets.append(ticket)
            yield from service.drain()

        bed.sim.run_process(producer())
        assert len(tickets) == 4
        assert all(t.accepted for t in tickets)
        assert service.admission.shed.get(SHED_QUEUE_FULL) is None
        assert service.completed == 4

    def test_accounting_identity_with_failures(self, testbed):
        """offered == completed + failed + shed, even under faults."""
        bed = testbed
        service = _service(bed, classes=_tiny_classes(queue_depth=16),
                           workers=1, admit_after=10_000)
        service.register("t", "only")
        service.start()
        # An unverifiable program (uninitialized register) fails the
        # pipeline deterministically: counted as ``failed``, never a
        # silent drop.
        bad = BpfProgram(
            Asm().mov_reg(op.R0, op.R5).exit_().build(), name="bad"
        )

        def body():
            ticket = service.submit("t", bed.codeflow, bad, "ingress")
            yield ticket.done
            return ticket

        ticket = bed.sim.run_process(body())
        assert ticket.error is not None
        assert not ticket.completed
        assert service.failed == 1
        assert service.accounting()["unaccounted"] == 0
        # Under injected torn writes the retry layer heals the deploy:
        # it lands in ``completed`` -- the ledger balances either way.
        injector = FaultInjector(bed.codeflow, seed=5)
        injector.arm(FaultKind.TORN_WRITE, count=50)  # persistent
        injector.attach()
        program = make_stress_program(300, seed=2)

        def body2():
            ticket = service.submit("t", bed.codeflow, program, "ingress")
            yield ticket.done
            return ticket

        try:
            ticket = bed.sim.run_process(body2())
        finally:
            injector.detach()
        assert ticket.completed
        assert service.completed == 1
        assert service.accounting()["unaccounted"] == 0

    def test_priority_class_overtakes_bulk(self, testbed):
        """A hotpatch submitted after queued bulk work finishes first."""
        bed = testbed
        classes = default_classes(queue_depth=32)
        service = _service(bed, classes=classes, workers=1)
        service.register("whale", "bulk")
        service.register("pager", "hotpatch")
        service.start()
        bulk_prog = make_stress_program(2_000, seed=4)
        hot_prog = make_stress_program(60, seed=6)

        def body():
            bulk = [
                service.submit("whale", bed.codeflow, bulk_prog, "egress",
                               kind="bulk")
                for _ in range(3)
            ]
            hot = service.submit("pager", bed.codeflow, hot_prog, "ingress",
                                 kind="hot")
            for ticket in [hot] + bulk:
                yield ticket.done
            return hot, bulk

        hot, bulk = bed.sim.run_process(body())
        assert hot.completed
        # The worker was mid-bulk at submit time; the hotpatch then
        # overtook every *queued* bulk deploy.
        finished_bulk = sorted(t.finished_us for t in bulk)
        assert hot.finished_us < finished_bulk[1]


# ---------------------------------------------------------------------------
# The serve telemetry segment
# ---------------------------------------------------------------------------


def _control_read(bed):
    """A one-sided read shim against the control host's memory."""

    def read(addr, size):
        yield bed.sim.timeout(0.2)  # wire time, no control CPU
        return bed.control.host.memory.read(addr, size)

    return read


@pytest.mark.arm(obs=True, pipelined_deploy=True)  # the segment is obs'
class TestServeSegment:
    def _run_some_traffic(self, bed, service):
        service.register("t", "hotpatch")
        service.start()
        program = make_stress_program(120, seed=1)

        def body():
            tickets = [
                service.submit("t", bed.codeflow, program, "ingress")
                for _ in range(3)
            ]
            for ticket in tickets:
                if ticket.accepted:
                    yield ticket.done

        bed.sim.run_process(body())

    def test_scrape_matches_service_truth(self, testbed):
        bed = testbed
        service = _service(bed, admit_after=1)
        self._run_some_traffic(bed, service)
        assert service.segment is not None
        snapshot = bed.sim.run_process(
            scrape_serve(_control_read(bed), service.segment.base_addr)
        )
        assert snapshot.values["admit.accept"] == 3
        assert snapshot.values["deploys.completed"] == service.completed
        assert snapshot.values["warm.hit"] == service.warm_pool.hits
        assert snapshot.values["warm.hit"] >= 1
        assert snapshot.values["deploy_us.count"] == 3
        local = service.segment.snapshot_local()
        assert snapshot.values == local.values

    def test_scrape_consumes_no_control_cpu(self, testbed):
        bed = testbed
        service = _service(bed, admit_after=1)
        self._run_some_traffic(bed, service)
        cpu = bed.control.host.cpu
        before = (cpu.busy_us, cpu.tasks_run)
        for _ in range(5):
            bed.sim.run_process(
                scrape_serve(_control_read(bed), service.segment.base_addr)
            )
        assert (cpu.busy_us, cpu.tasks_run) == before

    def test_torn_scrape_retries_then_accepts(self, testbed):
        bed = testbed
        service = _service(bed, admit_after=1)
        self._run_some_traffic(bed, service)
        segment = service.segment
        sim = bed.sim

        def slow_writer():
            segment.begin_update()
            segment.inc("warm.hit", 100)  # mid-write garbage
            yield sim.timeout(5.0)
            segment.end_update()

        sim.spawn(slow_writer(), name="torn-writer")
        snapshot = sim.run_process(
            scrape_serve(_control_read(bed), segment.base_addr, sim=sim)
        )
        # Accepted strictly after the bracket closed.
        assert snapshot.values["warm.hit"] == service.warm_pool.hits + 100

    def test_read_between_the_two_depth_stores_is_retried(self, testbed, monkeypatch):
        """``queued`` and ``inflight`` share one bracket: a READ that
        lands between the two stores sees an odd seq, is retried and
        never exported (with a bracket per gauge it was accepted, new
        ``queued`` beside old ``inflight``); the quiesced scrape after
        it is the service's own ledger."""
        from repro.obs.scrape import read_segment
        from repro.obs.segment import decode_segment

        bed = testbed
        service = _service(bed, admit_after=1)
        segment = service.segment
        memory, cache = bed.control.host.memory, bed.control.host.cache
        queued_addr, inflight_addr = (
            segment.base_addr + segment.layout.fields[name][0]
            for name in ("queued", "inflight")
        )
        landed = []  # what a READ would see after each store of a depth update
        cpu_write = cache.cpu_write

        def store_then_read(addr, data):
            cpu_write(addr, data)
            if addr == queued_addr or (landed and landed[-1] is not None):
                landed.append(
                    None if addr == inflight_addr  # the update's last slot
                    else memory.read(segment.base_addr, segment.size_bytes)
                )

        monkeypatch.setattr(cache, "cpu_write", store_then_read)
        self._run_some_traffic(bed, service)
        monkeypatch.undo()
        landed = [raw for raw in landed if raw is not None]
        assert len(landed) >= 9  # three depth updates per ticket
        assert not any(decode_segment(raw, segment.layout).consistent for raw in landed)

        image = [landed[-1]]  # what every READ sees until one is declared torn

        def read(addr, size):
            yield bed.sim.timeout(0.2)
            if image:
                offset = addr - segment.base_addr
                return image[0][offset : offset + size]
            return memory.read(addr, size)

        snapshot, retries = bed.sim.run_process(
            read_segment(read, segment.base_addr, segment.layout, on_torn=image.clear)
        )
        assert retries == 1
        ledger = service.accounting()
        values = snapshot.values
        assert (values["queued"], values["inflight"]) == (ledger["queued"], ledger["inflight"])
        assert values["deploys.completed"] == ledger["completed"] == 3
        assert values["deploys.failed"] == ledger["failed"]
        assert values["admit.accept"] == ledger["offered"] - sum(ledger["shed"].values())
        assert values["deploy_us.count"] == ledger["completed"] + ledger["failed"]

    def test_exhausted_retries_raise(self, testbed):
        bed = testbed
        service = _service(bed, admit_after=1)
        self._run_some_traffic(bed, service)
        service.segment.begin_update()  # bracket held open forever
        with pytest.raises(ReproError):
            bed.sim.run_process(
                scrape_serve(
                    _control_read(bed), service.segment.base_addr,
                    max_retries=2,
                )
            )
        service.segment.end_update()

    def test_tenant_label_collapses_to_class(self):
        for per_tenant, label in ((False, "hotpatch"), (True, "hot123")):
            arm = replace(DEFAULT, obs_target_labels=per_tenant)
            hub = make_testbed(config=arm).obs
            assert hub.tenant_label("hot123", "hotpatch") == label

    def test_per_class_series_stay_bounded(self, testbed):
        """1000 tenants, O(classes) label values on serve metrics."""
        bed = testbed
        service = _service(bed, admit_after=1)
        self._run_some_traffic(bed, service)
        labels = {
            tuple(sorted(row["labels"].items()))
            for row in bed.obs.registry.snapshot()
            if row["name"] == "rdx.serve.deploy_us"
        }
        assert labels == {(("tenant_class", "hotpatch"),)}


# ---------------------------------------------------------------------------
# End to end: the open-loop workload
# ---------------------------------------------------------------------------


class TestServeWorkload:
    @pytest.mark.arm(pipelined_deploy=True)
    def test_small_open_loop_mix(self, config):
        spec = ServeWorkloadSpec(
            n_tenants=45, n_targets=2, duration_us=120_000.0,
            n_hot_programs=3, seed=11,
        )
        result, service = run_serve_workload(
            spec,
            make_testbed(n_hosts=2, cores_per_host=8, seed=11, config=config),
        )
        assert result.offered > 50
        assert result.unaccounted == 0
        assert result.completed + result.failed + sum(
            result.shed.values()
        ) == result.offered
        assert result.deploys_per_sec > 0
        assert result.latency_p99_us >= result.latency_p50_us
        # The tentpole's acceptance shape: warm >= 2x faster than the
        # cold validate+JIT+link path on service latency.
        assert result.warm_hits > 0
        assert result.warm_service_p50_us * 2 <= result.cold_service_p50_us

    def test_deterministic_for_seed(self):
        spec = ServeWorkloadSpec(
            n_tenants=20, n_targets=1, duration_us=50_000.0,
            n_hot_programs=2, seed=3,
        )
        first, _ = run_serve_workload(spec)
        second, _ = run_serve_workload(spec)
        assert first.offered == second.offered
        assert first.latency_p99_us == second.latency_p99_us
        assert first.shed == second.shed

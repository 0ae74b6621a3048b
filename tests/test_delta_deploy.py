"""Delta-deploy tests: eligibility, ping-pong, fault paths, provenance.

Covers the chunk-level redeploy fast path end to end -- when it
engages, what it ships, how it unwinds -- plus the batched-write fault
fixes it leans on: dropped WRs re-entering the retry loop and the
empty batch costing nothing.
"""

from dataclasses import replace

import pytest

from repro import params
from repro.core.faults import FaultInjector, FaultKind, _HookAction
from repro.core.journal import REC_COMMIT
from repro.core.reconcile import Reconciler, resume_control_plane
from repro.ebpf.stress import make_stress_program, make_stress_variant
from repro.errors import DeployError, TransientFault
from repro.exp.fault_campaign import run_fault_campaign
from repro.exp.harness import make_testbed
from repro.hb import checker
from repro.mem.layout import pack_qword

INSNS = 400


#: This file is about the delta plan, which needs the pipelined arm;
#: the tests about its absence pin ``delta_deploy=False`` themselves.
pytestmark = pytest.mark.arm(pipelined_deploy=True, delta_deploy=True)


def _counter(bed, name, **labels):
    metric = bed.obs.registry.get(name, **labels)
    return metric.value if metric is not None else 0


def _deploy(bed, program, retain_history=False):
    return bed.sim.run_process(
        bed.control.inject(
            bed.codeflow, program, "ingress", retain_history=retain_history
        )
    )


def _chain(bed, n=3, seed=7, name="hotpatch"):
    """Deploy v1 (cold), v2 (registers baseline), ... vn; return reports."""
    base = make_stress_program(INSNS, seed=seed, name=name)
    versions = [base] + [
        make_stress_variant(base, imm) for imm in range(1, n)
    ]
    return [_deploy(bed, v) for v in versions]


class TestDeltaEngages:
    def test_third_deploy_ships_delta(self, testbed):
        r1, r2, r3 = _chain(testbed, 3)
        assert (r1.mode, r2.mode, r3.mode) == ("full", "full", "delta")
        # One-instruction edit: the edited insn and the trailing CRC
        # land in one dirty chunk, trimmed to cache-line spans.
        assert r3.delta_chunks == 1
        assert r3.bytes_moved < r1.bytes_moved / 5
        assert r3.delta_base_version == 1
        # The two warm-up deploys were counted as fallbacks, by reason.
        assert _counter(testbed, "rdx.delta.fallback", reason="first-deploy") == 1
        assert _counter(testbed, "rdx.delta.fallback", reason="no-baseline") == 1
        assert _counter(testbed, "rdx.deploy.delta") == 1

    def test_extents_ping_pong(self, testbed):
        r1, r2, r3, r4 = _chain(testbed, 4)
        # The delta writes into the baseline extent and flips to it, so
        # the two extents swap roles every generation.
        assert r3.mode == r4.mode == "delta"
        assert r3.code_addr == r1.code_addr
        assert r4.code_addr == r2.code_addr

    def test_zero_diff_redeploy_is_metadata_only(self, testbed):
        _chain(testbed, 3)
        base = make_stress_program(INSNS, seed=7, name="hotpatch")
        # The diff base is the *baseline* -- the image superseded one
        # generation ago (v2, imm=1) -- so redeploying that exact
        # version is a zero-chunk delta: descriptor + CAS, no code.
        again = _deploy(testbed, make_stress_variant(base, 1))
        assert again.mode == "delta"
        assert again.delta_chunks == 0
        assert again.bytes_moved == 256  # just the descriptor

    @pytest.mark.arm(delta_deploy=False)
    def test_flag_off_never_deltas(self, testbed):
        reports = _chain(testbed, 3)
        assert all(r.mode == "full" for r in reports)
        assert _counter(testbed, "rdx.deploy.delta") == 0

    def test_remote_image_matches_full_path(self, config):
        """The delta-installed extent is byte-identical to a full
        install of the same version, and decodes identically."""
        payload = bytes(range(256))
        states = {}
        for delta in (True, False):
            bed = make_testbed(
                n_hosts=1, cores_per_host=4,
                config=replace(config, delta_deploy=delta),
            )
            report = _chain(bed, 3)[-1]
            record = bed.codeflow.deployed["hotpatch"]
            image = bed.sim.run_process(
                bed.codeflow.read_raw(report.code_addr, record.code_len)
            )
            execution, _ = bed.sandbox.run_hook("ingress", payload)
            states[delta] = (image, execution.r0)
        assert states[True] == states[False]


class TestFallbacks:
    def test_past_break_even_falls_back(self, testbed):
        """An 11-chunk image re-rolled from another seed dirties every
        chunk: more than ``RDX_DELTA_MAX_CHUNKS`` chains pay for (the
        count is checked before the byte savings)."""
        for seed in (7, 8, 9):  # first-deploy, no-baseline, then the diff
            r3 = _deploy(
                testbed, make_stress_program(4_100, seed=seed, name="hotpatch")
            )
        assert r3.mode == "full"
        assert (
            _counter(testbed, "rdx.delta.fallback", reason="past-break-even")
            == 1
        )

    def test_unrelated_image_has_no_savings(self, testbed):
        _chain(testbed, 3)
        # Same size, same layout, but almost every byte differs: the
        # trimmed spans cover the whole image, so shipping them as a
        # "delta" would move more than a full install.
        other = make_stress_program(INSNS, seed=99, name="hotpatch")
        report = _deploy(testbed, other)
        assert report.mode == "full"
        assert (
            _counter(testbed, "rdx.delta.fallback", reason="no-savings") == 1
        )

    def test_size_change_falls_back(self, testbed):
        _chain(testbed, 3)
        grown = make_stress_program(INSNS + 6, seed=7, name="hotpatch")
        report = _deploy(testbed, grown)
        assert report.mode == "full"
        assert (
            _counter(testbed, "rdx.delta.fallback", reason="size-changed") == 1
        )


class TestBaselineLifetime:
    def test_superseded_extent_stays_resident(self, testbed):
        """retain_history=False used to free the old extent at commit;
        it must stay allocated while registered as the diff baseline."""
        r1, _ = _chain(testbed, 2)
        allocator = testbed.codeflow.code_allocator
        record = testbed.codeflow.deployed["hotpatch"]
        assert record.baseline_addr == r1.code_addr
        assert allocator.size_of(r1.code_addr) is not None

    def test_cas_conflict_unwinds_and_heals(self, testbed):
        _chain(testbed, 3)
        codeflow = testbed.codeflow
        record = codeflow.deployed["hotpatch"]
        hook_addr = testbed.sandbox.hook_table.slot_addr("ingress")
        live = record.code_addr

        # A concurrent writer moves the hook out from under the deploy.
        testbed.sim.run_process(
            codeflow.sync.write(hook_addr, pack_qword(0x7E57_0000))
        )
        base = make_stress_program(INSNS, seed=7, name="hotpatch")
        with pytest.raises(DeployError):
            _deploy(testbed, make_stress_variant(base, 3))
        # The baseline extent was half-rewritten by the body, so the
        # unwind poisons it: registration dropped, extent retired.
        assert record.baseline_addr is None
        assert record.baseline_image is None

        # Restore the pointer; the next deploy self-heals on the full
        # path (no-baseline fallback) and re-registers a baseline.
        testbed.sim.run_process(
            codeflow.sync.write(hook_addr, pack_qword(live))
        )
        healed = _deploy(testbed, make_stress_variant(base, 4))
        assert healed.mode == "full"
        assert (
            _counter(testbed, "rdx.delta.fallback", reason="no-baseline") >= 1
        )
        assert codeflow.deployed["hotpatch"].baseline_addr is not None
        # And the generation after that deltas again.
        assert _deploy(testbed, make_stress_variant(base, 5)).mode == "delta"
        checker.consume(testbed.sim)  # deliberate raw hook pokes above

    def test_reboot_adopt_reseeds_baseline(self, testbed):
        """After a control-plane handover the reconciler's CRC readback
        re-learns the resident image; the first deploy ships full (the
        link layout is unknown) and the next one deltas again."""
        bed = testbed
        base = make_stress_program(INSNS, seed=7, name="hotpatch")
        _deploy(bed, base)
        plane, codeflows = bed.sim.run_process(
            resume_control_plane(
                bed.cluster.control_host, bed.control.journal, bed.sandboxes
            )
        )
        reports = bed.sim.run_process(Reconciler(plane).reconcile_all(codeflows))
        assert "adopt" in [a.kind for a in reports[0].actions]
        record = codeflows[0].deployed["hotpatch"]
        assert record.image is not None  # CRC-verified readback

        def redeploy(imm):
            return bed.sim.run_process(
                plane.inject(
                    codeflows[0], make_stress_variant(base, imm), "ingress",
                    retain_history=False,
                )
            )

        first = redeploy(1)
        assert first.mode == "full"
        assert first.code_addr != record.code_addr  # fresh extent
        second = redeploy(2)
        assert second.mode == "delta"
        # ...and the delta's base is the adopted pre-handover extent.
        assert second.code_addr == record.code_addr


class TestWriteBatchFaultPaths:
    def test_empty_batch_is_free(self, testbed):
        """Regression: an empty batch used to charge RDX_CC_EVENT_US;
        it must return immediately at zero simulated cost."""
        sync = testbed.codeflow.sync
        before = testbed.sim.now
        assert testbed.sim.run_process(sync.write_batch([])) is None
        assert testbed.sim.now == before

    def test_dropped_wr_reenters_retry_loop(self, testbed):
        """Regression: a dropped WR was silently skipped and the batch
        reported success with a chunk missing.  It must be charged the
        transport timeout, re-sent, and land."""
        sync = testbed.codeflow.sync
        addr = testbed.codeflow.manifest.scratchpad_addr
        ops = [(addr, b"\xaa" * 64), (addr + 64, b"\xbb" * 64)]
        state = {"drops": 1}

        def hook(op, target, data):
            if op == "write" and target == addr and state["drops"]:
                state["drops"] -= 1
                return _HookAction(drop=True)
            return None

        sync.fault_hook = hook
        before = testbed.sim.now
        try:
            testbed.sim.run_process(sync.write_batch(ops))
        finally:
            sync.fault_hook = None
        landed = testbed.sim.run_process(sync.read(addr, 128))
        assert landed == b"\xaa" * 64 + b"\xbb" * 64
        # The lost WR is indistinguishable from an unACKed write: it
        # costs a transport timeout before the re-send.
        assert testbed.sim.now - before >= params.RDMA_RETRY_TIMEOUT_US
        assert _counter(testbed, "rdx.retry.attempts", op="write_batch") == 1

    def test_all_dropped_exhausts_retry_budget(self, testbed):
        sync = testbed.codeflow.sync
        addr = testbed.codeflow.manifest.scratchpad_addr

        def hook(op, target, data):
            return _HookAction(drop=True) if op == "write" else None

        sync.fault_hook = hook
        try:
            with pytest.raises(TransientFault):
                testbed.sim.run_process(
                    sync.write_batch([(addr, b"\xcc" * 64)])
                )
        finally:
            sync.fault_hook = None
        assert _counter(testbed, "rdx.retry.exhausted", op="write_batch") == 1
        assert (
            _counter(testbed, "rdx.retry.attempts", op="write_batch")
            == sync.retry.max_attempts
        )

    def test_delta_rides_out_transient_fault(self, testbed):
        """A flaky link during the delta's WR chain is absorbed by the
        retry policy: the deploy still commits as a delta."""
        _chain(testbed, 2)
        injector = FaultInjector(testbed.codeflow, seed=3)
        injector.arm(FaultKind.TRANSIENT)
        injector.attach()
        try:
            base = make_stress_program(INSNS, seed=7, name="hotpatch")
            report = _deploy(testbed, make_stress_variant(base, 2))
        finally:
            injector.detach()
            injector.disarm()
        assert report.mode == "delta"
        execution, _ = testbed.sandbox.run_hook("ingress", bytes(range(256)))
        assert execution is not None


class TestProvenance:
    def test_journal_commit_records_delta_base(self, testbed):
        report = _chain(testbed, 3)[-1]
        commits = [
            record
            for record in testbed.control.journal.records
            if record.rec == REC_COMMIT and "deploy" in record.detail
        ]
        assert len(commits) == 1
        deploy = commits[0].detail["deploy"]
        assert deploy["mode"] == "delta"
        assert deploy["base_version"] == report.delta_base_version
        assert deploy["chunks"] == report.delta_chunks
        assert deploy["bytes_moved"] == report.bytes_moved

    def test_bytes_written_metric_counts_moved_bytes(self, testbed):
        r1, r2, r3 = _chain(testbed, 3)
        written = _counter(testbed, "rdx.deploy.bytes_written")
        assert written == r1.bytes_moved + r2.bytes_moved + r3.bytes_moved
        assert r3.bytes_moved < r2.bytes_moved


class TestFaultCampaignDelta:
    def test_campaign_hotpatch_rounds_ship_deltas(self, config):
        """The §4 invariants hold with every steady-state round on the
        delta path -- and deltas actually engage under the schedule."""
        result = run_fault_campaign(
            n_hosts=3, rounds=6, seed=0, hotpatch=True,
            testbed=make_testbed(
                n_hosts=3, cores_per_host=8, seed=0, config=config
            ),
        )
        assert result.stranded == 0
        assert result.delta_deploys > 0
        assert result.committed + result.aborts == result.rounds_run

    @pytest.mark.arm(delta_deploy=False)
    def test_campaign_hotpatch_full_arm(self, config):
        result = run_fault_campaign(
            n_hosts=2, rounds=4, seed=1, hotpatch=True,
            testbed=make_testbed(
                n_hosts=2, cores_per_host=8, seed=1, config=config
            ),
        )
        assert result.stranded == 0
        assert result.delta_deploys == 0

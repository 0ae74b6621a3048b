"""Tests for the sandbox-resident telemetry segment (seqlock plane)."""

import struct

import pytest

from repro.obs.segment import (
    COUNTER_SLOTS,
    GAUGE_SLOTS,
    HIST_BUCKETS,
    LAYOUT,
    OFF_EPOCH,
    OFF_SEQ,
    SEGMENT_MAGIC,
    bucket_of,
    decode_segment,
    segment_region,
)


@pytest.fixture
def segment(testbed):
    return testbed.sandbox.telemetry


class TestLayout:
    def test_fields_do_not_overlap(self):
        spans = sorted(
            (offset, offset + 8) for offset, _fmt in LAYOUT.fields.values()
        )
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start >= prev_end

    def test_size_is_cacheline_tiled(self):
        assert LAYOUT.size_bytes % 64 == 0
        assert LAYOUT.size_bytes >= max(
            offset + 8 for offset, _ in LAYOUT.fields.values()
        )

    def test_every_slot_has_a_field(self):
        for name in COUNTER_SLOTS + GAUGE_SLOTS:
            assert name in LAYOUT.fields
        for bucket in range(HIST_BUCKETS):
            assert f"exec_us.bucket{bucket}" in LAYOUT.fields

    def test_bucket_of_log2_boundaries(self):
        assert bucket_of(0.0) == 0
        assert bucket_of(0.9) == 0
        assert bucket_of(1.0) == 1
        assert bucket_of(2.0) == 2
        assert bucket_of(3.0) == 2
        assert bucket_of(4.0) == 3
        # The top bucket absorbs everything.
        assert bucket_of(10**9) == HIST_BUCKETS - 1

    def test_region_covers_layout(self):
        start, end = segment_region(1000)
        assert (start, end) == (1000, 1000 + LAYOUT.size_bytes)


class TestSegmentWrites:
    def test_magic_and_epoch_written_at_init(self, testbed, segment):
        raw = bytes(
            testbed.sandbox.host.memory.read(
                segment.base_addr, LAYOUT.size_bytes
            )
        )
        assert raw[:4] == SEGMENT_MAGIC
        snapshot = decode_segment(raw)
        assert snapshot.valid and snapshot.consistent
        assert snapshot.epoch == 1

    def test_inc_and_gauge_land_in_dram(self, segment):
        segment.inc("exec.crashes", 3)
        segment.set_gauge("last_exec_us", 42.5)
        snapshot = segment.snapshot_local()
        assert snapshot.values["exec.crashes"] == 3
        assert snapshot.values["last_exec_us"] == 42.5
        assert snapshot.consistent

    def test_observe_fills_log_buckets(self, segment):
        for value in (0.5, 3.0, 3.5, 100.0):
            segment.observe("exec_us", value)
        hist = segment.snapshot_local().histogram("exec_us")
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(107.0)
        assert hist["buckets"][bucket_of(0.5)] == 1
        assert hist["buckets"][bucket_of(3.0)] == 2
        assert hist["buckets"][bucket_of(100.0)] == 1

    def test_note_exec_detects_install(self, segment):
        first = segment.note_exec("ingress", 0x5000, 120, 1.5, now_us=10.0)
        again = segment.note_exec("ingress", 0x5000, 120, 1.5, now_us=20.0)
        newer = segment.note_exec("ingress", 0x6000, 120, 1.5, now_us=30.0)
        assert (first, again, newer) == (True, False, True)
        values = segment.snapshot_local().values
        assert values["exec.count"] == 3
        assert values["install.observed"] == 2
        assert values["first_exec_us"] == 30.0
        assert values["last_install_addr"] == 0x6000


class TestSeqlock:
    def _seq_in_dram(self, testbed, segment):
        raw = testbed.sandbox.host.memory.read(segment.base_addr + OFF_SEQ, 8)
        return struct.unpack("<Q", bytes(raw))[0]

    def test_bracket_goes_odd_then_even(self, testbed, segment):
        before = self._seq_in_dram(testbed, segment)
        assert before % 2 == 0
        segment.begin_update()
        assert self._seq_in_dram(testbed, segment) % 2 == 1
        segment.end_update()
        after = self._seq_in_dram(testbed, segment)
        assert after % 2 == 0 and after == before + 2

    def test_bracket_is_reentrant(self, testbed, segment):
        with segment:
            segment.inc("exec.count")  # nested bracket: no extra bumps
            assert self._seq_in_dram(testbed, segment) % 2 == 1
        assert self._seq_in_dram(testbed, segment) % 2 == 0

    def test_unbalanced_end_raises(self, segment):
        with pytest.raises(RuntimeError):
            segment.end_update()

    def test_open_bracket_reads_as_inconsistent(self, testbed, segment):
        segment.begin_update()
        try:
            raw = bytes(
                testbed.sandbox.host.memory.read(
                    segment.base_addr, LAYOUT.size_bytes
                )
            )
            assert not decode_segment(raw).consistent
        finally:
            segment.end_update()

    def test_short_or_garbage_read_is_invalid(self):
        assert not decode_segment(b"").valid
        assert not decode_segment(b"\x00" * LAYOUT.size_bytes).valid


class TestReset:
    def test_reset_zeroes_and_stamps_epoch(self, testbed, segment):
        segment.note_exec("ingress", 0x5000, 10, 1.0, now_us=5.0)
        segment.reset(epoch=7)
        snapshot = segment.snapshot_local()
        assert snapshot.epoch == 7
        assert all(v == 0 for v in snapshot.values.values())
        raw = testbed.sandbox.host.memory.read(
            segment.base_addr + OFF_EPOCH, 8
        )
        assert struct.unpack("<Q", bytes(raw))[0] == 7
        # Install tracking restarts: the same pointer is "new" again.
        assert segment.note_exec("ingress", 0x5000, 10, 1.0, now_us=6.0)

    def test_warm_reboot_resets_segment(self, testbed):
        sandbox = testbed.sandbox
        sandbox.telemetry.inc("exec.count", 9)
        sandbox.warm_reboot()
        snapshot = sandbox.telemetry.snapshot_local()
        assert snapshot.epoch == 2
        assert snapshot.values["exec.count"] == 0
        assert snapshot.values["reboots"] == 1.0

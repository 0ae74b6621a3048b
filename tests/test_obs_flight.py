"""Tests for the crash flight recorder and blackbox replay."""

import json

import pytest

from repro.core.journal import REC_FLIGHT, IntentJournal
from repro.ebpf.stress import make_stress_program
from repro.obs.flight import FlightRecorder, format_blackbox
from repro.obs.telemetry import Telemetry, export_prometheus
from repro.sim.trace import TraceRecorder


class TestRing:
    def test_ring_is_bounded_and_counts_drops(self, sim):
        flight = FlightRecorder(sim, capacity=4)
        hub = Telemetry(sim)
        for index in range(10):
            with hub.span("op", index=index) as span:
                pass
            flight.record_span(span)
        assert len(flight.entries) == 4
        assert flight.dropped == 6
        snapshot = flight.snapshot()
        assert snapshot["truncated"] is True
        assert snapshot["ring_dropped"] == 6
        # The ring keeps the *newest* entries.
        kept = [entry["attrs"]["index"] for entry in snapshot["ring"]]
        assert kept == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self, sim):
        with pytest.raises(ValueError):
            FlightRecorder(sim, capacity=0)

    def test_note_metrics_rings_deltas_once(self, sim):
        hub = Telemetry(sim)
        hub.counter("rdx.deploy.count").inc(3)
        assert hub.flight.note_metrics(hub.registry) == 1
        # No movement -> no new entries.
        assert hub.flight.note_metrics(hub.registry) == 0
        hub.counter("rdx.deploy.count").inc()
        hub.counter("other.counter").inc()  # outside the rdx. prefix
        assert hub.flight.note_metrics(hub.registry) == 1
        entries = [e for e in hub.flight.entries if e["kind"] == "metric"]
        assert [e["delta"] for e in entries] == [3, 1]
        assert entries[-1]["total"] == 4

    def test_a_dropped_series_is_forgotten_not_rung_negative(self, sim):
        """The checkpoint lives on the counter, so ``registry.drop``
        takes it along: the series the scraper re-creates after a warm
        reboot rings its own movement (it used to ring 2 - 5 = -3 on a
        monotone counter, and the recorder kept every retired key)."""
        hub = Telemetry(sim)
        labels = {"target": "node0.sb1", "epoch": "1"}
        retired = hub.counter("rdx.scraped", **labels)
        retired.inc(5)
        assert hub.flight.note_metrics(hub.registry) == 1
        assert hub.registry.drop(target="node0.sb1") == 1
        hub.counter("rdx.scraped", **labels).inc(2)
        retired.inc(40)  # a handle someone kept: no longer a series
        assert hub.flight.note_metrics(hub.registry) == 1
        assert hub.flight.entries[-1] == {
            "kind": "metric", "t": 0.0, "name": "rdx.scraped",
            "labels": labels, "delta": 2.0, "total": 2.0,
        }

    def test_a_series_dropped_after_it_moved_is_not_rung(self, sim):
        hub = Telemetry(sim)
        hub.counter("rdx.kept").inc()
        hub.counter("rdx.gone", target="t").inc()
        hub.registry.drop(target="t")
        assert hub.flight.note_metrics(hub.registry) == 1
        assert hub.flight.entries[-1]["name"] == "rdx.kept"

    def test_movers_are_rung_in_series_order(self, sim):
        """Byte-identical ring: whatever order counters moved in, they
        are rung in the order a sorted walk of the registry meets them."""
        hub = Telemetry(sim)
        for name, labels in (
            ("rdx.b", {}), ("rdx.a", {"x": "2"}), ("rdx.a", {"x": "10"}), ("rdx.a", {}),
        ):
            hub.counter(name, **labels).inc()
        hub.gauge("rdx.a0").set(1.0)  # not a counter: never rung
        hub.flight.note_metrics(hub.registry)
        rung = [(e["name"], e["labels"]) for e in hub.flight.entries]
        assert rung == [
            (m.name, dict(m.labels)) for m in hub.registry if m.kind == "counter"
        ]

    def test_snapshot_captures_open_spans(self, sim):
        hub = Telemetry(sim)
        span = hub.span("rdx.broadcast", group_size=3)
        snapshot = hub.flight.snapshot(hub.tracer.open_spans)
        span.finish()
        assert [s["name"] for s in snapshot["open_spans"]] == ["rdx.broadcast"]
        assert snapshot["open_spans"][0]["attrs"]["group_size"] == 3

    def test_snapshot_is_json_safe_and_journal_neutral(self, sim):
        """Nested-only payload: replay scanners must ignore FLIGHT."""
        hub = Telemetry(sim)
        with hub.span("rdx.deploy", target="node0.sb1", obj=object()):
            pass
        detail = hub.flight.snapshot(hub.tracer.open_spans)
        json.dumps(detail)  # fully serializable
        journal = IntentJournal()
        journal.record_flight(1, detail)
        assert journal.known_targets() == []
        assert journal.in_flight() == []
        assert journal.committed_intent() == {}


@pytest.mark.arm(obs=True)  # the flight recorder is the obs plane's
class TestCrashSnapshot:
    def _crash_mid_broadcast(self, bed):
        from repro.core.broadcast import CodeFlowGroup

        group = CodeFlowGroup(bed.codeflows)
        programs = [
            make_stress_program(300, seed=i, name=f"fl{i}")
            for i in range(len(bed.codeflows))
        ]
        bed.sim.run_process(group.broadcast(programs, "ingress"))
        proc = bed.sim.spawn(
            group.broadcast(programs, "ingress"), name="doomed"
        )
        bed.sim.run(until=bed.sim.now + 10.0)
        assert proc.is_alive
        bed.control.crash()
        proc.interrupt("control plane fail-stop")
        bed.sim.run()

    def test_crash_journals_flight_record(self, testbed2):
        self._crash_mid_broadcast(testbed2)
        records = testbed2.control.journal.flight_records()
        assert len(records) == 1
        detail = records[0].detail
        assert detail["ring"]  # the committed broadcast's spans
        assert any(
            span["name"] == "rdx.broadcast"
            for span in detail["open_spans"]
        )

    def test_flight_record_survives_jsonl_round_trip(self, testbed2):
        self._crash_mid_broadcast(testbed2)
        journal = testbed2.control.journal
        rebuilt = IntentJournal.from_jsonl(journal.to_jsonl())
        originals = [r.detail for r in journal.flight_records()]
        recovered = [r.detail for r in rebuilt.flight_records()]
        assert recovered == originals
        assert rebuilt.records[-1].rec == REC_FLIGHT

    def test_format_blackbox_renders_the_story(self, testbed2):
        self._crash_mid_broadcast(testbed2)
        flights = [
            r.detail for r in testbed2.control.journal.flight_records()
        ]
        report = format_blackbox(flights, epoch=testbed2.control.epoch)
        assert "flight record 1/1" in report
        assert "in flight at death" in report
        assert "OPEN rdx.broadcast" in report
        assert "recent activity" in report

    def test_empty_journal_renders_clean(self):
        assert "no flight records" in format_blackbox([])


class TestTruncatedMarker:
    def test_recorder_drops_surface_as_counter_and_marker(self, sim):
        """Satellite: ring drops are first-class and never report clean."""
        hub = Telemetry(sim, recorder=TraceRecorder(max_events=4))
        for index in range(6):
            hub.recorder.record(float(index), "evt")
        assert hub.registry.counter("rdx.obs.trace_dropped").value == 2
        assert hub.truncated
        text = export_prometheus(hub)
        assert "rdx_obs_truncated 1" in text
        # clear() empties the ring, but the hub stays marked truncated:
        # history was lost, and no later export may pretend otherwise.
        hub.recorder.clear()
        assert hub.recorder.dropped == 0
        assert hub.truncated
        assert "rdx_obs_truncated 1" in export_prometheus(hub)

    def test_clean_hub_exports_untruncated(self, sim):
        hub = Telemetry(sim)
        hub.counter("rdx.deploy.count").inc()
        assert "rdx_obs_truncated 0" in export_prometheus(hub)

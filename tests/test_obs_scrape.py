"""Tests for one-sided telemetry scraping (seqlock read protocol)."""

import pytest

from repro import params
from repro.core.health import HealthDetector, TargetHealth
from repro.ebpf.stress import make_stress_program
from repro.obs.scrape import TelemetryScraper, TornSnapshotError

#: Scraping reads what the obs plane writes: pinned on, by value.
pytestmark = pytest.mark.arm(obs=True)


def _deploy_and_run(bed, insns=400, execs=3):
    """Install a program and execute its hook a few times."""
    program = make_stress_program(insns, seed=7)
    bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
    for _ in range(execs):
        bed.sandbox.run_hook("ingress", b"\x00" * 256)
    return program


class TestScrapeProtocol:
    def test_scrape_matches_local_truth(self, testbed):
        _deploy_and_run(testbed, execs=4)
        scraper = TelemetryScraper(testbed.codeflows)
        result = testbed.sim.run_process(
            scraper.scrape(testbed.sandbox.name)
        )
        local = testbed.sandbox.telemetry.snapshot_local()
        assert result.epoch == 1
        assert result.snapshot.values == local.values
        assert result.snapshot.values["exec.count"] == 4
        assert result.snapshot.values["install.observed"] == 1
        assert result.retries == 0

    def test_scrape_is_agentless_zero_sandbox_cpu(self, testbed):
        """The scrape property: no target CPU time, tasks, or events."""
        _deploy_and_run(testbed)
        scraper = TelemetryScraper(testbed.codeflows)
        cpu = testbed.sandbox.host.cpu
        before = (cpu.busy_us, cpu.tasks_run, testbed.sandbox.events_executed)
        for _ in range(5):
            testbed.sim.run_process(scraper.scrape(testbed.sandbox.name))
        after = (cpu.busy_us, cpu.tasks_run, testbed.sandbox.events_executed)
        assert after == before

    def test_torn_schedule_observes_seqlock_retry(self, testbed):
        """A writer holding the bracket open forces bounded retries.

        The scrape must spin (counted retries), then accept a snapshot
        taken strictly after the bracket closed -- never the mid-write
        payload.
        """
        _deploy_and_run(testbed, execs=2)
        segment = testbed.sandbox.telemetry
        scraper = TelemetryScraper(testbed.codeflows)
        sim = testbed.sim

        def slow_writer():
            segment.begin_update()
            segment.inc("exec.count", 100)  # mid-write state: 102
            yield sim.timeout(params.RDX_SCRAPE_RETRY_US * 3)
            segment.inc("exec.count", 1)  # final state: 103
            segment.end_update()

        sim.spawn(slow_writer(), name="torn-writer")
        result = sim.run_process(scraper.scrape(testbed.sandbox.name))
        assert result.retries > 0
        assert result.snapshot.values["exec.count"] == 103
        assert scraper.obs.registry.counter("rdx.scrape.retries").value > 0

    def test_exhausted_retries_never_export(self, testbed):
        """never-export-torn: budget exhaustion raises, publishes nothing."""
        _deploy_and_run(testbed)
        segment = testbed.sandbox.telemetry
        scraper = TelemetryScraper(testbed.codeflows, max_retries=2)
        segment.begin_update()
        try:
            with pytest.raises(TornSnapshotError):
                testbed.sim.run_process(
                    scraper.scrape(testbed.sandbox.name)
                )
        finally:
            segment.end_update()
        registry = scraper.obs.registry
        assert registry.counter("rdx.scrape.torn").value == 1
        assert not [
            row for row in registry.snapshot()
            if row["name"].startswith("sandbox.")
        ]

    def test_never_mixed_epoch_snapshot(self, testbed):
        """A reset racing the scrape yields the *new* epoch atomically.

        The writer holds the bracket across a warm-reboot-style reset;
        the accepted snapshot must be entirely post-reset (epoch 2,
        counters zeroed) -- old counters under the new epoch would be
        the mixed-epoch bug the in-bracket epoch word prevents.
        """
        _deploy_and_run(testbed, execs=5)
        segment = testbed.sandbox.telemetry
        scraper = TelemetryScraper(testbed.codeflows)
        sim = testbed.sim

        def rebooter():
            segment.begin_update()
            yield sim.timeout(params.RDX_SCRAPE_RETRY_US * 2)
            segment.reset(epoch=2)
            segment.end_update()

        sim.spawn(rebooter(), name="rebooter")
        result = sim.run_process(scraper.scrape(testbed.sandbox.name))
        assert result.retries > 0
        assert result.epoch == 2
        assert result.snapshot.values["exec.count"] == 0


class TestRegistryPublication:
    def test_series_carry_target_and_epoch_labels(self, testbed):
        _deploy_and_run(testbed, execs=2)
        scraper = TelemetryScraper(testbed.codeflows)
        testbed.sim.run_process(scraper.scrape(testbed.sandbox.name))
        counter = scraper.obs.registry.counter(
            "sandbox.exec.count", target=testbed.sandbox.name, epoch="1"
        )
        assert counter.value == 2

    def test_counters_publish_deltas_not_totals(self, testbed):
        _deploy_and_run(testbed, execs=2)
        scraper = TelemetryScraper(testbed.codeflows)
        name = testbed.sandbox.name
        testbed.sim.run_process(scraper.scrape(name))
        testbed.sandbox.run_hook("ingress", b"\x00" * 256)
        second = testbed.sim.run_process(scraper.scrape(name))
        assert second.deltas["exec.count"] == 1
        counter = scraper.obs.registry.counter(
            "sandbox.exec.count", target=name, epoch="1"
        )
        assert counter.value == 3  # 2 + 1, not 2 + 3

    def test_epoch_bump_retires_old_series(self, testbed):
        """Satellite: pre-reboot counters can't leak into the new epoch."""
        _deploy_and_run(testbed, execs=3)
        scraper = TelemetryScraper(testbed.codeflows)
        name = testbed.sandbox.name
        testbed.sim.run_process(scraper.scrape(name))
        testbed.sandbox.warm_reboot()
        testbed.sim.run_process(scraper.scrape(name))
        rows = {
            (row["name"], row["labels"].get("epoch"))
            for row in scraper.obs.registry.snapshot()
            if row["name"] == "sandbox.exec.count"
        }
        assert rows == {("sandbox.exec.count", "2")}


class TestHealthPiggyback:
    def test_probe_scrapes_after_renewal(self, testbed2):
        for codeflow in testbed2.codeflows:
            program = make_stress_program(300, seed=11)
            testbed2.sim.run_process(
                testbed2.control.inject(codeflow, program, "ingress")
            )
        scraper = TelemetryScraper(testbed2.codeflows)
        health = HealthDetector(testbed2.codeflows, scraper=scraper)
        states = testbed2.sim.run_process(health.probe_all())
        assert all(s is TargetHealth.ALIVE for s in states.values())
        assert len(scraper.results) == len(testbed2.codeflows)
        assert scraper.obs.registry.counter("rdx.scrape.count").value == 2

    def test_torn_scrape_is_not_a_lease_miss(self, testbed):
        scraper = TelemetryScraper(testbed.codeflows, max_retries=0)
        health = HealthDetector(testbed.codeflows, scraper=scraper)
        testbed.sandbox.telemetry.begin_update()
        try:
            state = testbed.sim.run_process(
                health.probe(testbed.sandbox.name)
            )
        finally:
            testbed.sandbox.telemetry.end_update()
        assert state is TargetHealth.ALIVE
        assert health.lease_of(testbed.sandbox.name).consecutive_misses == 0
        assert scraper.obs.registry.counter("rdx.scrape.torn").value == 1

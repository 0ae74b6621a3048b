"""Schedule fuzzer: plans, perturbation hooks, minimization, corpus."""

import json

import pytest

from repro import params
from repro.fuzz import corpus as fuzz_corpus
from repro.fuzz import hooks
from repro.fuzz.engine import fuzz, run_plan
from repro.fuzz.minimize import minimize_decisions
from repro.fuzz.plan import DELAY_STEPS, Decision, SchedulePlan
from repro.fuzz.scenarios import GUARDED, KNOWN_BAD, SCENARIOS, get
from repro.hb import events as hb_events
from repro.hb.detect import RaceFinding
from repro.hb.events import HbEvent
from repro.net.fabric import Message
from repro.net.topology import Cluster
from repro.sim.core import Simulator
from repro.sim.rand import derive_rng, stable_seed


class TestSeeding:
    def test_stable_seed_deterministic(self):
        assert stable_seed(1, "rnic.service", 0) == stable_seed(
            1, "rnic.service", 0
        )

    def test_stable_seed_decorrelated(self):
        # Distinct sites, seeds, and hits all produce distinct streams.
        seeds = {
            stable_seed(s, site, hit)
            for s in range(4)
            for site in ("a", "b", "a.b")
            for hit in range(4)
        }
        assert len(seeds) == 4 * 3 * 4

    def test_stable_seed_no_concat_aliasing(self):
        # ("ab", "c") must not collide with ("a", "bc").
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_derive_rng_reproducible(self):
        a = derive_rng(3, "mesh.workload")
        b = derive_rng(3, "mesh.workload")
        c = derive_rng(3, "mem.cache")
        run_a = [a.random() for _ in range(8)]
        assert run_a == [b.random() for _ in range(8)]
        assert run_a != [c.random() for _ in range(8)]


class TestSchedulePlan:
    def test_generate_mode_is_pure(self):
        # Same seed, same consult sequence -> identical tape; and the
        # choice at a site does not depend on what other sites chose.
        a = SchedulePlan(seed=11)
        b = SchedulePlan(seed=11)
        for plan in (a, b):
            for i in range(6):
                plan.choose(f"site{i % 3}", 5)
        assert a.decisions == b.decisions

    def test_generate_records_only_nonzero(self):
        plan = SchedulePlan(seed=2)
        choices = [plan.choose("s", 5) for _ in range(40)]
        assert any(choices), "40 draws from a 5-menu never nonzero?"
        assert len(plan.decisions) == sum(1 for c in choices if c)

    def test_frozen_defaults_to_unperturbed(self):
        plan = SchedulePlan(
            seed=0, decisions=[Decision("s", 2, 3)], frozen=True
        )
        assert [plan.choose("s", 5) for _ in range(4)] == [0, 0, 3, 0]
        assert plan.choose("other", 5) == 0

    def test_reset_regenerates_identically(self):
        plan = SchedulePlan(seed=9)
        first = [plan.choose("x", 4) for _ in range(10)]
        tape = list(plan.decisions)
        plan.reset()
        assert plan.decisions == []
        assert [plan.choose("x", 4) for _ in range(10)] == first
        assert plan.decisions == tape

    def test_json_round_trip(self):
        plan = SchedulePlan(seed=7, scenario="bubble-sweep")
        for i in range(12):
            plan.choose(f"site{i}", 5)
        loaded = SchedulePlan.loads(plan.dumps())
        assert loaded.seed == plan.seed
        assert loaded.scenario == plan.scenario
        assert loaded.decisions == plan.decisions

    def test_delay_steps_reserve_zero(self):
        assert DELAY_STEPS[0] == 0.0
        plan = SchedulePlan(seed=0, decisions=[], frozen=True)
        assert plan.delay_us("any", 100.0) == 0.0


class TestSerialization:
    def test_hb_event_round_trip(self):
        event = HbEvent(
            3, 12.5, "land",
            {"kind": "WRITE", "addr": 0x2000, "length": 64, "epoch": 2},
        )
        assert HbEvent.from_dict(
            json.loads(json.dumps(event.to_dict()))
        ) == event

    def test_race_finding_round_trip(self):
        finding = RaceFinding(
            kind="bubble-race",
            target="h0",
            range=(0x1000, 0x1008),
            first=HbEvent(1, 1.0, "land", {"kind": "WRITE", "addr": 0x1000}),
            second=HbEvent(2, 2.0, "land", {"kind": "WRITE", "addr": 0x1000}),
            missing_edge="serialize the owners",
        )
        restored = RaceFinding.from_dict(
            json.loads(json.dumps(finding.to_dict()))
        )
        assert restored == finding


class TestMinimizer:
    def test_needs_pair(self):
        decisions = [Decision(s, 0, 1) for s in "abcdef"]
        need = {("a", 0), ("d", 0)}

        def test_fn(subset):
            return need <= {(d.site, d.hit) for d in subset}

        result = minimize_decisions(decisions, test_fn)
        assert {(d.site, d.hit) for d in result} == need

    def test_structural_shrinks_to_empty(self):
        decisions = [Decision(s, 0, 1) for s in "abcd"]
        assert minimize_decisions(decisions, lambda subset: True) == []

    def test_budget_caps_runs(self):
        decisions = [Decision(f"s{i}", 0, 1) for i in range(64)]
        runs = 0

        def test_fn(subset):
            nonlocal runs
            runs += 1
            return Decision("s63", 0, 1) in subset

        minimize_decisions(decisions, test_fn, budget=10)
        assert runs <= 10


class TestEngine:
    def test_same_seed_identical_run(self):
        scenario = get("bubble-sweep")
        a = run_plan(scenario, SchedulePlan(seed=4, scenario=scenario.name))
        b = run_plan(scenario, SchedulePlan(seed=4, scenario=scenario.name))
        assert a.digest == b.digest
        assert a.decisions == b.decisions
        assert a.kinds == b.kinds

    def test_different_seeds_differ(self):
        scenario = get("bubble-sweep")
        digests = {
            run_plan(
                scenario, SchedulePlan(seed=s, scenario=scenario.name)
            ).digest
            for s in range(4)
        }
        assert len(digests) > 1

    def test_run_plan_restores_globals(self):
        # Nothing to restore: checking and the tape were switched on
        # for the fuzzed simulator alone, so one built now has neither.
        run_plan(get("bubble-sweep"), SchedulePlan(seed=0))
        after = Simulator()
        assert params.config_of(after) is params.DEFAULT
        assert hooks.plan_of(after) is None
        # Teardown dropped the fuzzed simulator from the hb registry:
        # the autouse checker fixture must not re-flag its findings.
        assert hb_events.active_sims() == []

    def test_truncation_is_inconclusive_never_clean(self):
        scenario = get("bubble-sweep")
        result = run_plan(scenario, SchedulePlan(seed=0), max_events=4)
        assert result.truncated
        assert result.verdict == "inconclusive"

    def test_guarded_scenario_clean_under_perturbation(self):
        scenario = get("single-deploy")
        for i in range(2):
            result = run_plan(
                scenario,
                SchedulePlan(
                    seed=stable_seed(0, scenario.name, i),
                    scenario=scenario.name,
                ),
            )
            assert result.verdict == "clean", (
                result.verdict, result.kinds, result.failures
            )

    def test_second_relay_broadcast_orders_after_relayed_lowers(self):
        # Each relayed lower reports back to the control plane; without
        # that return edge the second round's raises race the first
        # round's relayed lowers (3 bubble-races at N=5, degree 2).
        scenario = get("broadcast-relay-twice")
        result = run_plan(scenario, SchedulePlan(seed=0, scenario=scenario.name))
        assert result.verdict == "clean", (result.kinds, result.failures)


class TestFuzzLoop:
    def test_rediscovers_known_bad_classes(self):
        # The acceptance bar: >= 3 of the 6 hb_schedules bug classes
        # rediscovered within a bounded budget.  (All 6 fall out; the
        # assert leaves slack so a retuned simulator does not flake.)
        rediscovered = 0
        for name in KNOWN_BAD:
            scenario = get(name)
            report = fuzz(scenario, iterations=4, seed=0)
            if scenario.expect in report.kinds_found:
                rediscovered += 1
        assert rediscovered >= 3, f"only {rediscovered}/{len(KNOWN_BAD)} classes rediscovered"

    def test_minimized_schedule_replays_from_json(self):
        # fenceless-writer is the genuinely schedule-dependent class:
        # its minimized tape is non-empty, and replaying it from
        # serialized JSON must re-trip the same detector class.
        scenario = get("fenceless-writer")
        report = fuzz(scenario, iterations=6, seed=0)
        failures = [f for f in report.failures if f.kind == scenario.expect]
        assert failures, report.verdicts
        failure = failures[0]
        assert failure.minimized_decisions >= 1
        assert failure.minimized_decisions <= failure.original_decisions
        entry = fuzz_corpus.CorpusEntry.from_failure(failure, workload_seed=0)
        round_tripped = fuzz_corpus.CorpusEntry.from_dict(
            json.loads(json.dumps(entry.to_dict()))
        )
        result, ok = fuzz_corpus.replay(round_tripped)
        assert ok
        assert scenario.expect in result.kinds

    def test_structural_race_minimizes_to_empty_tape(self):
        # bubble-race needs no special schedule: the minimal tape is
        # empty, which is the finding (any interleaving trips it).
        scenario = get("bubble-sweep")
        report = fuzz(scenario, iterations=1, seed=0)
        assert report.failures
        assert report.failures[0].minimized_decisions == 0

    def test_corpus_save_load_dir(self, tmp_path):
        scenario = get("bubble-sweep")
        report = fuzz(scenario, iterations=1, seed=0)
        entry = fuzz_corpus.CorpusEntry.from_failure(
            report.failures[0], workload_seed=0
        )
        path = fuzz_corpus.save(entry, str(tmp_path))
        assert path.endswith("bubble-sweep.bubble-race.json")
        entries = fuzz_corpus.load_dir(str(tmp_path))
        assert [e.filename for e in entries] == [entry.filename]
        result, ok = fuzz_corpus.replay(entries[0])
        assert ok and "bubble-race" in result.kinds

    def test_rejects_wrong_schema(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            fuzz_corpus.CorpusEntry.from_dict({"schema": "bogus"})


class TestHooks:
    def test_fabric_delay_site_consulted(self):
        # RDMA-heavy scenarios rarely exercise the fabric choice
        # point; pin it directly: a frozen tape entry stretches one
        # message's propagation.
        sim = Simulator()
        plan = SchedulePlan(
            seed=0,
            decisions=[Decision("fabric.delay:node0", 0, 4)],
            frozen=True,
        )
        recorder = hooks.bind(sim, plan, max_events=1000)
        cluster = Cluster(sim, n_hosts=2, cores_per_host=1)
        fabric = cluster.fabric
        src, dst = cluster.hosts[0].name, cluster.hosts[1].name

        def ping():
            yield fabric.send(Message(src, dst, "ctl", 64))

        t0 = sim.now
        sim.run_process(ping())
        perturbed = sim.now - t0
        assert plan.consulted == 1
        sim2 = Simulator()
        plan2 = SchedulePlan(seed=0, decisions=[], frozen=True)
        hooks.bind(sim2, plan2, max_events=1000)
        cluster2 = Cluster(sim2, n_hosts=2, cores_per_host=1)

        def ping2():
            yield cluster2.fabric.send(Message(src, dst, "ctl", 64))

        t0 = sim2.now
        sim2.run_process(ping2())
        baseline = sim2.now - t0
        assert perturbed == pytest.approx(
            baseline + DELAY_STEPS[4] * params.RDX_FUZZ_NET_DELAY_US
        )
        recorder.clear()

    def test_bind_refuses_existing_hub(self):
        from repro.obs import telemetry_of

        sim = Simulator()
        telemetry_of(sim)  # autovivify the default hub
        with pytest.raises(RuntimeError):
            hooks.bind(sim, SchedulePlan(seed=0), max_events=10)


class TestRegistry:
    def test_scenarios_partition(self):
        assert set(GUARDED) | set(KNOWN_BAD) == set(SCENARIOS)
        assert not set(GUARDED) & set(KNOWN_BAD)
        for name in KNOWN_BAD:
            assert SCENARIOS[name].expect
            assert SCENARIOS[name].schedule_class

    def test_known_bad_covers_hb_schedule_classes(self):
        # Each known-bad scenario names the hb_schedules class it
        # reconstructs; all six must reference real schedule names.
        import inspect

        from repro.exp import hb_schedules

        source = inspect.getsource(hb_schedules)
        known = {
            s.schedule_class for s in SCENARIOS.values() if s.known_bad
        }
        assert len(known) == 6
        for schedule_class in known:
            assert f'"{schedule_class}"' in source, schedule_class

"""Tests of the ledger's own arithmetic.  Run with ``pytest benchmarks/ledger``.

Not collected by tier-1 (``testpaths = ["tests"]``) and needs no
testbed: everything under test is plain Python in ``harness.py``,
``rollup.py``, ``catalog.py`` and the runner's compare logic.
"""

import json
import re
from pathlib import Path

import pytest

import catalog
import harness
import rollup
import run as runner
from harness import (
    Digest,
    FailureLedger,
    Recorder,
    Segment,
    SegmentSet,
    arm_meets_slo,
    budget_gate,
    conservation_violations,
    max_rate_in_slo,
    percentile,
    require_percentile,
    run_segments,
    self_times,
    summarize,
    supported_percentile,
)

# -- the percentile rule: highest percentile with >= 10 samples beyond ---------


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (19, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0),
     (10000, 99.9)],
)
def test_supported_percentile(n, expected):
    assert supported_percentile(n) == expected


def test_summarize_reports_median_tail_and_count():
    values = [float(v) for v in range(1, 201)]
    summary = summarize(values)
    assert summary["n"] == 200
    assert summary["p50"] == pytest.approx(100.5)
    assert summary["tail_p"] == 95.0
    assert summary["tail"] == pytest.approx(percentile(values, 95.0))


def test_unsupported_tail_is_refused_not_extrapolated():
    with pytest.raises(ValueError, match="p99"):
        require_percentile([1.0] * 999, 99.0, "latency")
    assert require_percentile([2.0] * 1000, 99.0, "latency") == 2.0


# -- best of k ----------------------------------------------------------------------


def _segment(cpu, wall=None, slices=None, ops=100, sim=None):
    return Segment(
        ops=ops, cpu_s=cpu, wall_s=wall if wall is not None else cpu,
        setup_s=0.1, slice_cpu_s=slices, sim=sim or {},
    )


def test_best_of_k_takes_the_fastest_segment():
    segments = SegmentSet([_segment(2.0), _segment(1.0), _segment(4.0)], 0, [])
    assert segments.best_cpu_s == 1.0
    assert segments.best_rate == 100.0
    assert segments.rate_spread == pytest.approx(0.75)
    assert segments.floor_spread == pytest.approx(0.5)  # 100/s vs 50/s


def test_best_of_k_per_slice_beats_any_whole_segment():
    # A burst hits a different op in each segment: op by op, the
    # quiet copy counts.
    segments = SegmentSet(
        [_segment(7.0, slices=[5.0, 1.0, 1.0]),
         _segment(7.0, slices=[1.0, 5.0, 1.0]),
         _segment(7.0, slices=[1.0, 1.0, 5.0])], 0, [])
    assert segments.best_cpu_s == 3.0


def test_run_segments_keeps_k_min_even_over_budget():
    made = []

    def one():
        made.append(1)
        return _segment(1.0)

    kept = run_segments(one, budget_gate(0.0, k_min=5, k_max=9))
    assert len(kept.kept) == 5 and kept.reruns == 0
    assert len(run_segments(one, budget_gate(3600.0, 5, 9)).kept) == 9


def test_contended_segment_is_rerun_at_most_twice():
    walls = iter([2.0, 2.0, 2.0, 1.0, 1.0])

    def one():
        return _segment(1.0, wall=next(walls))

    kept = run_segments(one, budget_gate(0.0, k_min=3, k_max=3))
    # Two noisy segments discarded and rerun; the third noisy one kept.
    assert kept.reruns == 2
    assert kept.discarded_contention == [2.0, 2.0]
    assert [seg.wall_s for seg in kept.kept] == [2.0, 1.0, 1.0]


def test_identical_segments_must_agree_on_the_sim_clock():
    same = [_segment(1.0, sim={"p50": 14.16}), _segment(1.1, sim={"p50": 14.16 + 1e-12})]
    assert harness.check_repeatable(same) == []
    differ = same + [_segment(1.0, sim={"p50": 14.17})]
    assert harness.check_repeatable(differ) == ["p50"]


# -- the SLO / max-rate ladder ----------------------------------------------------


def test_arm_meets_slo_needs_latency_loss_and_backlog():
    assert arm_meets_slo(999.0, 0.01, 16)
    assert not arm_meets_slo(1000.1, 0.0, 0)
    assert not arm_meets_slo(500.0, 0.011, 0)
    assert not arm_meets_slo(500.0, 0.0, 17)


def test_max_rate_is_the_top_of_an_unbroken_ladder():
    assert max_rate_in_slo([(3400, True), (27000, True), (55000, False)]) == 27000
    assert max_rate_in_slo([(55000, True), (3400, True), (27000, True)]) == 55000
    # A higher rung that happens to pass does not count past a failed one.
    assert max_rate_in_slo([(3400, True), (27000, False), (55000, True)]) == 3400
    assert max_rate_in_slo([(3400, False), (27000, True)]) == 0.0


# -- spans: self time and conservation ----------------------------------------------


class _Clock:
    now = 0.0


def _traced_op(gap_us=0.0):
    clock = _Clock()
    rec = Recorder(enabled=True)
    rec.bind(clock)
    with rec.span("op", 7) as op:
        with rec.span("prepare_for", 7, op):
            clock.now += 1000.0
        clock.now += gap_us  # sim time no child accounts for
        with rec.span("deploy_prog", 7, op):
            clock.now += 14.0
        with rec.span("run_hook", 7, op) as hook:
            hook.add_sim(0.3)  # run_hook returns its cost, the clock stands
        op.add_sim(0.3)
    return rec


def test_span_self_time_is_duration_minus_child_cover():
    rec = _traced_op(gap_us=2.5)
    op = rec.spans[0]
    assert op.sim_us == pytest.approx(1016.8)
    self_sim, self_cpu = self_times(rec.spans)[op.sid]
    assert self_sim == pytest.approx(2.5)
    assert self_cpu >= 0.0
    leaf = rec.spans[1]
    assert self_times(rec.spans)[leaf.sid][0] == pytest.approx(1000.0)


def test_conservation_holds_when_children_sum_to_the_op():
    assert conservation_violations(_traced_op().spans) == []


def test_conservation_catches_lost_time():
    (name, op, lost), = conservation_violations(_traced_op(gap_us=2.5).spans)
    assert (name, op) == ("op", 7) and lost == pytest.approx(2.5)


def test_switched_off_recorder_records_nothing():
    rec = Recorder(enabled=False)
    with rec.span("op") as span:
        span.add_sim(1.0)
    assert rec.spans == []


# -- failure ledger and digest ----------------------------------------------------------


def test_failure_ledger_counts_failed_and_shed_against_attempted():
    ledger = FailureLedger()
    ledger.attempt(100)
    ledger.fail("crash-at-first-exec", 2)
    ledger.fail("wrong-r0")
    ledger.shed("queue-full", 7)
    assert ledger.failed == 3 and ledger.shed_total == 7
    assert ledger.failed_share == pytest.approx(0.10)
    other = FailureLedger.from_dict(ledger.to_dict())
    other.merge(ledger)
    assert other.attempted == 200 and other.failed_by_reason["wrong-r0"] == 2


def test_digest_is_ordered_and_blind_below_the_sim_tolerance():
    def digest(*parts):
        d = Digest()
        d.add(*parts)
        return d.hexdigest()

    assert digest("cold", 1044.51) == digest("cold", 1044.51 + 1e-11)
    assert digest("cold", 1044.51) != digest("cold", 1044.52)
    assert digest("a", "b") != digest("b", "a")


# -- cProfile roll-up -----------------------------------------------------------------------


def test_builtin_time_is_charged_to_the_nearest_owned_caller():
    sim_run = ("/x/src/repro/sim/core.py", 455, "run")
    helper = ("/usr/lib/python3/heapq.py", 10, "nsmallest")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    root = ("/somewhere/else.py", 1, "<module>")
    stats = {
        # func: (primitive calls, calls, tottime, cumtime, callers)
        root: (1, 1, 0.1, 10.1, {}),
        sim_run: (1, 1, 6.0, 10.0, {root: (1, 1, 6.0, 10.0)}),
        helper: (5, 5, 1.0, 4.0, {sim_run: (5, 5, 1.0, 4.0)}),
        heappop: (50, 50, 3.0, 3.0, {helper: (50, 50, 3.0, 3.0)}),
    }
    rolled = rollup.roll_up(stats)
    # heappop -> (unowned) helper -> sim: all of it lands on sim.
    assert rolled.seconds["sim"] == pytest.approx(10.0)
    assert rolled.seconds[rollup.OTHER] == pytest.approx(0.1)
    assert rolled.share("sim") == pytest.approx(10.0 / 10.1)
    assert rolled.pycalls("sim") == 1  # only functions defined in the package


def test_owner_of_names_the_package():
    assert rollup.owner_of("/c/src/repro/ebpf/verifier.py") == "ebpf"
    assert rollup.owner_of("/c/src/repro/params.py") == "params"
    assert rollup.owner_of(str(Path(rollup.LEDGER_DIR) / "harness.py")) == rollup.BENCH
    assert rollup.owner_of("~") is None


# -- catalogue, BENCHMARK.json and the contract line --------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in doc["workloads"]] == list(catalog.WORKLOADS)
    assert {e["name"]: (e["unit"], e["better"], e["bound"]) for e in doc["end_to_end"]} == {
        slot: (unit, better, bound)
        for slot, (unit, better, bound, _names) in catalog.CONTRACT_SLOTS.items()
    }
    assert [(p["name"], p["unit"], p["better"]) for p in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.PER_LAYER
    ]
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [e["name"] for e in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(e["unit"]) for e in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < e["bound"] <= 0.25 for e in doc["end_to_end"])
    assert "setup_s" in {e["name"] for e in doc["end_to_end"]}


def test_every_contract_slot_has_a_ledger_name_on_every_workload():
    ledger_names = {m.name for m in catalog.END_TO_END}
    for slot, (_unit, _better, _bound, names) in catalog.CONTRACT_SLOTS.items():
        assert set(names) == set(catalog.ALL), slot
        assert set(names.values()) <= ledger_names, slot


def _result(traced=False, **metrics):
    base = {
        "setup_s": 1.0, "ops_per_cpu_s": 170.0, "peak_rss_mb": 74.0,
        "failed_share": 0.0, "deploy_cold_p50_us": 1044.5,
        "deploy_warm_p50_us": 14.16, "deploy_patch_p50_us": 1045.9,
        "deploy_goodput_per_sim_s": 2650.0,
    }
    base.update(metrics)
    return {
        "workload": catalog.CHURN, "traced": traced, "metrics": base,
        "ledger": {"attempted": 318, "failed": {}, "shed": {}}, "problems": [],
        "digest": "d" * 64, "segments": {"all": {"floor_spread": 0.02}},
    }


def test_contract_line_untraced_carries_every_slot_and_ok_share():
    line = json.loads(runner.contract_line(_result(failed_share=0.03)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(catalog.CONTRACT_SLOTS)
    assert line["metrics"]["ok_share"]["value"] == pytest.approx(0.97)
    assert line["metrics"]["arm2_sim_us"] == {"value": 14.16, "unit": "us"}
    assert line["correct"] is True and line["failed"] == 0


def test_contract_line_traced_carries_every_per_layer_metric():
    result = _result(traced=True, **{"ebpf.cpu_share": 0.88})
    line = json.loads(runner.contract_line(result))
    assert list(line["metrics"]) == [m.name for m in catalog.PER_LAYER]
    assert line["metrics"]["ebpf.cpu_share"]["value"] == 0.88
    assert line["metrics"]["serve.warmpool.hit_ratio"]["value"] == 0.0


def test_a_failed_op_or_a_problem_makes_the_run_incorrect():
    failed = _result()
    failed["ledger"]["failed"] = {"wrong-r0": 1}
    assert not runner.is_correct(failed)
    lost = _result()
    lost["problems"] = ["span op loses 2.5 sim-us"]
    assert not runner.is_correct(lost)


# -- compare ---------------------------------------------------------------------------------------


def _saved(spread=0.02, **metrics):
    class Args:
        seed, smoke = 1, False

    result = _result(**metrics)
    result["segments"]["all"]["floor_spread"] = spread
    return runner.to_saved([result], Args)


def _verdicts(now, base):
    rows, worse = runner.compare(now, base)
    return {row[0]: row[5] for row in rows}, worse


def test_compare_holds_the_sim_clock_to_the_digit_and_cpu_to_its_bound():
    base = _saved()
    verdicts, worse = _verdicts(_saved(), base)
    assert set(verdicts.values()) == {"unchanged"} and worse == 0

    verdicts, worse = _verdicts(
        _saved(deploy_warm_p50_us=14.17, ops_per_cpu_s=180.0, deploy_cold_p50_us=1000.0),
        base,
    )
    assert verdicts["deploy_warm_p50_us"] == "WORSE"     # 0.07 % is a regression
    assert verdicts["deploy_cold_p50_us"] == "better"
    assert verdicts["ops_per_cpu_s"] == "unchanged"       # +5.9 % is inside 10 %
    assert worse == 1

    verdicts, worse = _verdicts(_saved(ops_per_cpu_s=140.0), base)
    assert verdicts["ops_per_cpu_s"] == "WORSE" and worse == 1


def test_compare_calls_a_noisy_cpu_metric_unresolved_not_unchanged():
    verdicts, worse = _verdicts(_saved(spread=0.3, ops_per_cpu_s=140.0), _saved())
    assert verdicts["ops_per_cpu_s"] == "unresolved" and worse == 0


def test_compare_flags_a_changed_digest_and_refuses_other_seeds():
    changed = _saved()
    changed["workloads"][catalog.CHURN]["digest"] = "e" * 64
    verdicts, worse = _verdicts(changed, _saved())
    assert verdicts["sim_digest"] == "CHANGED" and worse == 1
    other_seed = _saved()
    other_seed["seed"] = 2
    assert runner.compare(other_seed, _saved()) == ([], 0)


def test_baseline_keeps_only_what_does_not_depend_on_the_machine():
    kept = runner.deterministic_only(_saved())["workloads"][catalog.CHURN]
    assert "deploy_warm_p50_us" in kept["metrics"] and "failed_share" in kept["metrics"]
    assert "ops_per_cpu_s" not in kept["metrics"] and "setup_s" not in kept["metrics"]
    assert kept["digest"] == "d" * 64

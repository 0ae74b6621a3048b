#!/usr/bin/env python3
"""The perf ledger: the repo's one benchmark.

    python benchmarks/ledger/run.py [--workload W] [--seed S] [--trace [0|1]]
                                    [--compare [FILE]] [--check-repeat] [--smoke]

Runs four workloads (``kernel_stress``, ``deploy_churn``,
``broadcast_rack``, ``serve_ladder``), each part in its own
single-threaded subprocess, one at a time.  Prints every metric by name
with unit, clock, direction and regression bound, verifies outputs, and
exits non-zero on a correctness failure.  See README.md beside this
file for what each number means.

Without ``--trace`` both passes run: the untraced one (end-to-end
metrics) and the traced one (per-layer metrics; spans land in
``bench-out/ledger/trace-<workload>.json``).  With one ``--workload`` the
last line of standard output is the JSON object ``BENCHMARK.json``
describes.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
SRC = LEDGER_DIR.parents[1] / "src"
BASELINE = LEDGER_DIR / "baseline.json"
OUT_DIR = Path("bench-out") / "ledger"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20.0
#: A part that has not finished by then is killed (the contract allows
#: a run 180 s in all).
PART_TIMEOUT_S = 170
#: Lines of the pacing protocol between the runner and a paced part.
READY, GO, STOP = "READY", "go", "stop"
#: Rounds a paced workload runs at least / at most (one segment of
#: every part per round).
PACED_ROUNDS = (5, 40)

sys.path.insert(0, str(LEDGER_DIR))

import catalog  # noqa: E402
from harness import Config, FailureLedger, same_sim  # noqa: E402
from rollup import NAMED  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS,
        help="time budget of one workload's measured segments",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None,
        help="1: traced pass only (per-layer); 0: untraced only; default both",
    )
    parser.add_argument(
        "--compare", nargs="?", const=str(BASELINE), metavar="FILE",
        help="compare with a saved result (default: the committed baseline)",
    )
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the set twice; fail unless the two agree")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one segment: a <= 20 s plumbing check")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite baseline.json from this run")
    parser.add_argument("--child", metavar="PART", help=argparse.SUPPRESS)
    parser.add_argument("--paced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- the workload subprocess -------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one part of one workload in this process; print its document."""
    sys.path.insert(0, str(SRC))
    module = importlib.import_module(args.workload)  # imports repro
    import_s = time.process_time()

    if args.probe:
        # One more sample of what set-up costs before any testbed
        # exists: the import and the input generation, nothing else.
        module.make_inputs(Config(
            args.workload, args.child, args.seed, args.seconds, False, args.smoke
        ))
        print(json.dumps({"import_and_inputs_s": time.process_time()}))
        return 0

    def paced(_kept: int) -> bool:
        """The runner paces this part: say the last segment (or set-up)
        is done, then wait to be told whether to run another."""
        print(READY, flush=True)
        return sys.stdin.readline().strip() == GO

    cfg = Config(
        workload=args.workload, part=args.child, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace), smoke=args.smoke,
        gate=paced if args.paced else None,
    )
    out = module.run(cfg)
    measured = out["measured"]
    problems = list(out.get("problems", ())) + measured.problems()
    digests = {
        seg.extra["digest"] for seg in measured.every_segment() if "digest" in seg.extra
    }
    if len(digests) > 1:
        problems.append("sim digest differs between identical segments")

    doc = {
        "workload": args.workload,
        "part": args.child,
        "metrics": out["metrics"],
        "timings": out["timings"],
        "ledger": out["ledger"].to_dict(),
        "digest": out["digest"],
        "problems": problems,
        "import_s": import_s,
        "inputs_s": out["input_setup_s"],
        "segment_setup_s": measured.untraced.setup_s,
        "peak_rss_mb": measured.rss_mb,
        "segments": {
            "k": len(measured.untraced.kept),
            "reruns": measured.untraced.reruns,
            "discarded_contention": measured.untraced.discarded_contention,
            "host_contention": measured.untraced.contentions,
            "rate_spread": measured.untraced.rate_spread,
            "floor_spread": measured.untraced.floor_spread,
        },
    }
    if measured.rollup is not None:
        rollup = measured.rollup
        doc["profile"] = {
            "total_s": rollup.total_s,
            "timed_cpu_s": measured.profiled.cpu_s,
            "seconds": rollup.seconds,
            "pycalls": rollup.calls,
            "named_s": {f"{suffix}:{name}": rollup.cumulative_s(suffix, name)
                        for suffix, name in NAMED},
        }
        doc["trace_overhead_ratio"] = measured.trace_overhead_ratio
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        suffix = "" if args.child == "all" else f"-{args.child}"
        trace_file = OUT_DIR / f"trace-{args.workload}{suffix}.json"
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in measured.recorder.spans], handle)
        doc["trace_file"] = str(trace_file)
    print(json.dumps(doc))
    return 0


# -- the runner ---------------------------------------------------------------------


def part_command(workload: str, part: str, env_extra: dict, args, trace: int) -> tuple:
    """Command line and environment of one part: a fresh interpreter
    whose only RDX_* variables are the part's own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RDX_")}
    env.update(env_extra)
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", part, "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    return command, env


def run_part(
    workload: str, part: str, env_extra: dict, args, trace: int, probe: bool = False
) -> dict:
    command, env = part_command(workload, part, env_extra, args, trace)
    done = subprocess.run(
        command + ["--probe"] * probe, env=env, stdout=subprocess.PIPE, text=True,
        timeout=PART_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"ledger: {workload}/{part} exited with code {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_parts_paced(workload: str, parts: dict, args) -> dict:
    """The parts of one workload side by side, one segment at a time.

    Each part sets up in its own subprocess, then waits; the runner
    hands out turns round-robin, so only one part ever computes, and
    every part's segments span the whole time budget -- a slow spell of
    the host then costs each part a few segments instead of swallowing
    one part whole.
    """
    procs = {}

    def expect_ready(part: str) -> None:
        line = procs[part].stdout.readline()
        if line.strip() != READY:
            raise SystemExit(f"ledger: {workload}/{part} died: {line.strip()!r}")

    watchdog = threading.Timer(
        PART_TIMEOUT_S, lambda: [proc.kill() for proc in procs.values()]
    )
    watchdog.start()
    try:
        for part, env_extra in parts.items():
            command, env = part_command(workload, part, env_extra, args, 0)
            procs[part] = subprocess.Popen(
                command + ["--paced"], env=env, text=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            expect_ready(part)  # set-up done; the next part may start
        started = time.monotonic()
        at_least, at_most = PACED_ROUNDS
        rounds = 0
        while rounds < at_most and (
            # A quarter of the budget is left for the closing sweeps.
            rounds < at_least or time.monotonic() - started < args.seconds * 0.75
        ):
            for part, proc in procs.items():
                proc.stdin.write(GO + "\n")
                proc.stdin.flush()
                expect_ready(part)
            rounds += 1
        docs = {}
        for part, proc in procs.items():
            out, _ = proc.communicate(STOP + "\n")
            if proc.returncode != 0:
                raise SystemExit(
                    f"ledger: {workload}/{part} exited with code {proc.returncode}"
                )
            docs[part] = json.loads(out.strip().splitlines()[-1])
        return docs
    finally:
        watchdog.cancel()
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def merge_rack(parts: dict) -> dict:
    """Fold the three arm documents of broadcast_rack into one metric set."""
    arms = {arm: doc["metrics"] for arm, doc in parts.items()}
    tree = arms["tree"]
    # Every arm's numbers under "name[arm]"; the per-layer names proper
    # are read on the tree arm (N=256, the headline).
    metrics = {
        f"{name}[{arm}]": value
        for arm, values in arms.items() for name, value in values.items()
    }
    metrics.update({name: value for name, value in tree.items() if "." in name})
    metrics.update({
        "ops_per_cpu_s": (
            sum(values["legs"] for values in arms.values())
            / sum(values["best_cpu_s"] for values in arms.values())
        ),
        "broadcast_total_tree_us": tree["broadcast_total_us"],
        "broadcast_goodput_tree_per_sim_s": (
            tree["legs"] / (tree["broadcast_total_us"] / 1e6)
        ),
        "core.broadcast.total_tree_us": tree["broadcast_total_us"],
        "core.shard.window_vs_tree_ratio": (
            arms["sharded"]["bubble_window_us"] / tree["bubble_window_us"]
        ),
        "sandbox.crashes": float(sum(
            doc["ledger"]["failed"].get("crash-at-first-exec", 0)
            for doc in parts.values()
        )),
    })
    for arm, values in arms.items():
        metrics[f"bubble_window_{arm}_us"] = values["bubble_window_us"]
    if "core.shard.decisions" in tree:
        metrics["core.shard.decisions"] = arms["sharded"]["core.shard.decisions"]
    return metrics


def finish(workload: str, parts: dict, traced: bool, probes: tuple = ()) -> dict:
    """One workload's result from its part documents (and the extra
    set-up samples taken before and after them)."""
    docs = list(parts.values())
    lead = parts.get("tree") or docs[0]
    metrics = merge_rack(parts) if workload == catalog.RACK else dict(lead["metrics"])
    ledger = FailureLedger()
    for doc in docs:
        ledger.merge(FailureLedger.from_dict(doc["ledger"]))
    # Import and input generation cannot be cut into short segments;
    # their best-of is over every part's own and the spaced probes'.
    once = [doc["import_s"] + doc["inputs_s"] for doc in docs]
    once += [probe["import_and_inputs_s"] for probe in probes]
    metrics["setup_s"] = len(docs) * min(once) + sum(
        doc["segment_setup_s"] for doc in docs
    )
    metrics["peak_rss_mb"] = max(doc["peak_rss_mb"] for doc in docs)
    metrics["failed_share"] = ledger.failed_share
    if traced:
        profile = lead["profile"]
        total = profile["total_s"] or 1.0
        timed = profile["timed_cpu_s"] or 1.0
        for package in catalog.PACKAGES:
            metrics[f"{package}.cpu_share"] = profile["seconds"].get(package, 0.0) / total
            if package != "other":
                metrics[f"{package}.pycalls"] = float(profile["pycalls"].get(package, 0))
        named = profile["named_s"]
        metrics["ebpf.tag_cpu_share"] = named["ebpf/program.py:tag"] / timed
        metrics["ebpf.verify_jit_cpu_share"] = (
            named["ebpf/verifier.py:run"] + named["ebpf/jit.py:jit_compile"]
        ) / timed
        metrics["trace_overhead_ratio"] = lead["trace_overhead_ratio"]
    digest = hashlib.sha256(
        "".join(doc["digest"] for doc in docs).encode()
    ).hexdigest()
    return {
        "workload": workload,
        "traced": traced,
        "metrics": metrics,
        "timings": {k: v for doc in docs for k, v in doc["timings"].items()},
        "ledger": ledger.to_dict(),
        "failed_share": ledger.failed_share,
        "digest": digest,
        "problems": [f"{doc['part']}: {p}" for doc in docs for p in doc["problems"]],
        "segments": {doc["part"]: doc["segments"] for doc in docs},
        "trace_files": [doc["trace_file"] for doc in docs if "trace_file" in doc],
    }


def run_workload(workload: str, args, trace: int) -> dict:
    spec = catalog.WORKLOADS[workload]
    timing = not trace and not args.smoke  # the pass setup_s and CPU numbers come from
    lead, lead_env = next(iter(spec.parts.items()))
    probes = []
    if timing:
        probes.append(run_part(workload, lead, lead_env, args, 0, probe=True))
    if len(spec.parts) > 1 and timing:
        parts = run_parts_paced(workload, spec.parts, args)
    else:
        parts = {
            part: run_part(workload, part, env, args, trace)
            for part, env in spec.parts.items()
        }
    if timing:
        probes.append(run_part(workload, lead, lead_env, args, 0, probe=True))
    return finish(workload, parts, bool(trace), tuple(probes))


def is_correct(result: dict) -> bool:
    return not result["problems"] and not result["ledger"]["failed"]


# -- printing ---------------------------------------------------------------------------


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def print_table(headers, rows) -> None:
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def print_metrics(result: dict, title: str, catalogue) -> None:
    workload, metrics = result["workload"], result["metrics"]
    print(f"\n== {workload}: {title} ==")
    print_table(
        ["metric", "value", "unit", "clock", "better", "bound"],
        [[m.name, fmt(metrics[m.name]), m.unit, m.clock, m.better, f"{m.bound:g}"]
         for m in catalogue
         if m.name in metrics and workload in m.workloads],
    )


def print_result(result: dict, end_to_end: bool, per_layer: bool) -> None:
    metrics = result["metrics"]
    if end_to_end:
        print_metrics(result, "end-to-end metrics (untraced segments)", catalog.END_TO_END)
        print("\n-- timings: median, highest supported percentile, samples --")
        print_table(
            ["timing", "p50", "tail", "at", "n"],
            [[name, fmt(t["p50"]), fmt(t["tail"]), f"p{t['tail_p']:g}", t["n"]]
             for name, t in sorted(result["timings"].items())],
        )
    if per_layer:
        print_metrics(result, "per-layer metrics (traced run)", catalog.PER_LAYER)
        extras = sorted(name for name in metrics if name not in catalog.BY_NAME)
        if extras:
            print("\n-- also measured (not gated) --")
            print_table(["name", "value"], [[name, fmt(metrics[name])] for name in extras])
    ledger = result["ledger"]
    print(
        f"\nattempted {ledger['attempted']}  failed {ledger['failed'] or '{}'}  "
        f"shed {ledger['shed'] or '{}'}  sim_digest {result['digest'][:16]}"
    )
    for part, seg in result["segments"].items():
        noisy = seg["host_contention"]
        print(
            f"segments[{part}]: k={seg['k']} host_contention max {max(noisy)} "
            f"reruns={seg['reruns']} {seg['discarded_contention'] or ''} "
            f"rate_spread={seg['rate_spread']:.3f} floor_spread={seg['floor_spread']:.3f}"
        )
    for path in result["trace_files"]:
        print(f"spans: {path}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")


def contract_line(result: dict) -> str:
    """The one JSON object BENCHMARK.json promises, for one workload."""
    workload, metrics = result["workload"], result["metrics"]
    if result["traced"]:
        values = {
            m.name: {"value": float(metrics.get(m.name, 0.0)), "unit": m.unit}
            for m in catalog.PER_LAYER
        }
    else:
        values = {
            slot: {"value": catalog.contract_value(slot, workload, metrics), "unit": unit}
            for slot, (unit, _better, _bound, _names) in catalog.CONTRACT_SLOTS.items()
        }
    ledger = result["ledger"]
    return json.dumps({
        "correct": is_correct(result),
        "attempted": ledger["attempted"],
        "failed": sum(ledger["failed"].values()),
        "metrics": values,
    })


# -- saved results, baseline, compare -------------------------------------------------------


def to_saved(results: list, args) -> dict:
    doc = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    for result in results:
        entry = doc["workloads"].setdefault(
            result["workload"], {"metrics": {}, "floor_spread": 0.0}
        )
        # The untraced pass runs first and owns every name it reports:
        # the traced pass only adds what is new (the per-layer names).
        for name, value in result["metrics"].items():
            entry["metrics"].setdefault(name, value)
        if "digest" not in entry:
            entry["digest"] = result["digest"]
            entry["floor_spread"] = max(
                seg["floor_spread"] for seg in result["segments"].values()
            )
    return doc


def deterministic_only(saved: dict) -> dict:
    """What a baseline may hold: sim-clock values, counts and digests --
    nothing that depends on the machine."""
    out = {"seed": saved["seed"], "smoke": saved["smoke"], "workloads": {}}
    for workload, entry in saved["workloads"].items():
        kept = {
            name: value for name, value in sorted(entry["metrics"].items())
            if name in catalog.BY_NAME
            and catalog.BY_NAME[name].clock in (catalog.SIM, catalog.COUNT)
        }
        out["workloads"][workload] = {"digest": entry.get("digest"), "metrics": kept}
    return out


def compare(saved: dict, base: dict, resolve: bool = True) -> tuple:
    """Rows (metric, workload, base, now, ratio, verdict) and the count
    of regressions.  Every ratio is now / base.  With ``resolve`` a
    CPU-clock metric whose best-of-k was itself spread wider than the
    bound is reported as unresolved, not as unchanged or worse."""
    rows, worse = [], 0
    if (saved["seed"], saved["smoke"]) != (base["seed"], base["smoke"]):
        print(
            f"compare: base was seed {base['seed']} smoke={base['smoke']}; "
            "sim-clock values only compare at equal inputs -- nothing compared"
        )
        return rows, worse
    for workload, entry in saved["workloads"].items():
        base_entry = base["workloads"].get(workload)
        if base_entry is None:
            continue
        if entry.get("digest") and base_entry.get("digest"):
            same = entry["digest"] == base_entry["digest"]
            worse += not same
            rows.append(["sim_digest", workload, base_entry["digest"][:12],
                         entry["digest"][:12], "", "unchanged" if same else "CHANGED"])
        for name, now in sorted(entry["metrics"].items()):
            metric = catalog.BY_NAME.get(name)
            if metric is None or name not in base_entry["metrics"]:
                continue
            was = base_entry["metrics"][name]
            ratio = now / was if was else float("inf") if now else 1.0
            exact = metric.clock in (catalog.SIM, catalog.COUNT)
            if exact and same_sim(now, was):
                verdict = "unchanged"
            elif resolve and not exact and max(
                entry["floor_spread"], base_entry.get("floor_spread", 0.0)
            ) > metric.bound:
                verdict = "unresolved"
            elif not exact and abs(ratio - 1.0) <= metric.bound:
                verdict = "unchanged"
            else:
                improved = (now < was) == (metric.better == catalog.LOWER)
                verdict = "better" if improved else "WORSE"
                worse += not improved
            rows.append([name, workload, fmt(was), fmt(now), f"{ratio:.4f}", verdict])
    return rows, worse


def print_compare(saved: dict, base_path: str) -> int:
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    rows, worse = compare(saved, base)
    print(f"\n== compare with {base_path} (ratio = now / base) ==")
    print_table(["metric", "workload", "base", "now", "ratio", "verdict"], rows)
    print(f"{worse} worse")
    return worse


# -- main -----------------------------------------------------------------------------------


def run_set(args) -> list:
    workloads = [args.workload] if args.workload else list(catalog.WORKLOADS)
    # A smoke run takes both tables from the traced pass alone: its one
    # untraced segment is all an untraced pass would have run.
    one_pass = args.smoke and args.trace is None
    passes = (1,) if one_pass else (0, 1) if args.trace is None else (args.trace,)
    results = []
    for workload in workloads:
        for trace in passes:
            result = run_workload(workload, args, trace)
            print_result(result, one_pass or not trace, bool(trace))
            results.append(result)
        both = [r for r in results if r["workload"] == workload]
        if len(both) == 2:
            check_traced_equals_untraced(*both)
    return results


def check_traced_equals_untraced(untraced: dict, traced: dict) -> None:
    """The traced run's sim-clock metrics must equal the untraced run's."""
    for name, value in untraced["metrics"].items():
        metric = catalog.BY_NAME.get(name)
        if metric is None or metric.clock not in (catalog.SIM, catalog.COUNT):
            continue
        if name in traced["metrics"] and not same_sim(value, traced["metrics"][name]):
            problem = f"{name}: traced {traced['metrics'][name]!r} != untraced {value!r}"
            print(f"PROBLEM: {problem}")
            traced["problems"].append(problem)


def repeat_mismatches(second: dict, first: dict, show: bool = False) -> list:
    """Gated rows on which two sets of the same code disagree.

    Everything deterministic must repeat, and so must the end-to-end
    CPU-clock metrics, within their bounds.  Per-layer CPU-clock rows
    come from single traced segments: shown, not gated.
    """
    rows, _ = compare(second, first, resolve=False)
    if show:
        print_table(["metric", "workload", "first", "second", "ratio", "verdict"], rows)
    gated = {m.name for m in catalog.END_TO_END} | {"sim_digest"}
    return [
        row for row in rows
        if row[5] != "unchanged"
        and (row[0] in gated
             or catalog.BY_NAME[row[0]].clock in (catalog.SIM, catalog.COUNT))
    ]


def check_repeat(args, first: dict) -> int:
    """Run the set again; returns how many gated rows disagree."""
    print("\n== second set (--check-repeat) ==")
    second = to_saved(run_set(args), args)
    print("\n== repeat check: second set against first (ratio = second / first) ==")
    bad = repeat_mismatches(second, first, show=True)
    cpu_only = {
        workload for workload in {row[1] for row in bad}
        if all(catalog.BY_NAME[row[0]].clock in (catalog.CPU, catalog.HOST)
               for row in bad if row[1] == workload and row[0] != "sim_digest")
        and not any(row[0] == "sim_digest" and row[1] == workload for row in bad)
    }
    for workload in sorted(cpu_only):
        # The host only ever slows CPU time down, so a third sample
        # that agrees with either of the two settles it (reported).
        print(f"\n== {workload}: CPU-clock rows disagree; one more untraced pass ==")
        once = argparse.Namespace(**{**vars(args), "workload": workload, "trace": 0})
        third = to_saved(run_set(once), once)
        if any(not repeat_mismatches(third, other) for other in (first, second)):
            print(f"{workload}: third pass agrees with one of the two sets")
            bad = [row for row in bad if row[1] != workload]
    for row in bad:
        print(f"REPEAT MISMATCH: {row[0]} on {row[1]}: {row[2]} vs {row[3]}")
    print(f"{len(bad)} gated rows disagree")
    return len(bad)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SRC.is_dir():
        print(f"ledger: no program to measure: {SRC} is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    # Build step: byte-compile once, so no run pays for it inside setup_s.
    compileall.compile_dir(str(SRC), quiet=2, workers=1)
    compileall.compile_dir(str(LEDGER_DIR), quiet=2, workers=1)

    results = run_set(args)
    saved = to_saved(results, args)
    failures = sum(not is_correct(result) for result in results)

    if args.check_repeat:
        failures += check_repeat(args, saved)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "result.json", "w", encoding="utf-8") as handle:
        json.dump(saved, handle, indent=1, sort_keys=True)
    if args.write_baseline:
        with open(BASELINE, "w", encoding="utf-8") as handle:
            json.dump(deterministic_only(saved), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {BASELINE}")
    if args.compare or (args.workload is None and not args.write_baseline):
        failures += print_compare(saved, args.compare or str(BASELINE))

    if args.workload and len(results) == 1:
        print(contract_line(results[0]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

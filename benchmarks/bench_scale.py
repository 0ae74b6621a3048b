"""Rack-scale fan-out: bubble windows vs N, and kernel events/sec.

Two sweeps, both recorded in ``BENCH_SCALE.json``:

* **Broadcast windows** -- one group update at each N under up to
  three arms: ``flat`` (the PR-4 fan-out, the ablation baseline),
  ``tree`` (relay fan-out, ``config.tree_broadcast``), and ``sharded``
  (tree fan-out split across :data:`SHARDS` control planes with the
  cross-shard commit).  The acceptance shape is sublinear
  window growth on the tree arm -- window(N=256) <= 4x window(N=16) --
  while the flat arm grows ~linearly until the link cache overflows
  and it falls off a cliff (re-validation inside the window).
* **Kernel throughput** -- the pure sim-kernel stress at
  ``RDX_SCALE_KERNEL_N`` nodes: dispatched events per wall second,
  best of ``RDX_SCALE_KERNEL_REPS`` (wall clocks are noisy).  Reported,
  not gated -- the regression gate for the dispatch loop is the
  ledger's ``kernel_stress`` workload (``benchmarks/ledger``).

Knobs (all env vars, CI's scale-smoke job shrinks the sweep):

* ``RDX_SCALE_NS`` -- comma-separated broadcast sizes (default
  ``16,64,256``);
* ``RDX_SCALE_ARMS`` -- subset of ``tree,flat,sharded`` (default all);
* ``RDX_SCALE_KERNEL_N`` -- kernel stress node count (default 1024;
  0 skips the kernel sweep);
* ``RDX_SCALE_KERNEL_REPS`` -- wall-clock reps of the kernel stress
  (default 3).
"""

import os

from repro.exp.harness import format_table, write_bench_json
from repro.exp.scale import broadcast_window, kernel_throughput

#: Acceptance: tree window at N=256 within 4x the N=16 window.
MAX_TREE_GROWTH = 4.0
#: Control-plane shards on the sharded arm.
SHARDS = 4


def _ints_from_env(name, default):
    value = os.environ.get(name)
    if value is None:
        return default
    return tuple(int(part) for part in value.split(",") if part.strip())


def _arms_from_env():
    value = os.environ.get("RDX_SCALE_ARMS")
    if value is None:
        return ("tree", "flat", "sharded")
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _run_broadcast_sweep(ns, arms):
    windows = {}
    for arm in arms:
        for n in ns:
            if arm == "sharded" and n < SHARDS:
                continue
            windows[arm, n] = broadcast_window(
                n,
                tree=(arm != "flat"),
                shards=SHARDS if arm == "sharded" else 1,
            )
    return windows


def _run_kernel_sweep(kernel_n, reps):
    """Best-of-``reps`` (events per wall second, events)."""
    return max(kernel_throughput(kernel_n) for _ in range(reps))


def test_bench_scale(benchmark):
    ns = _ints_from_env("RDX_SCALE_NS", (16, 64, 256))
    arms = _arms_from_env()
    kernel_n = _ints_from_env("RDX_SCALE_KERNEL_N", (1024,))[0]
    reps = _ints_from_env("RDX_SCALE_KERNEL_REPS", (3,))[0]

    windows = benchmark.pedantic(
        _run_broadcast_sweep, kwargs={"ns": ns, "arms": arms},
        rounds=1, iterations=1,
    )
    kernel = _run_kernel_sweep(kernel_n, reps) if kernel_n else None

    table_rows = []
    json_rows = []
    for (arm, n), window in sorted(windows.items()):
        table_rows.append((arm, f"N={n}", window))
        json_rows.append(
            {"metric": f"{arm}.bubble_window_us", "n": n,
             "value": window, "unit": "us"}
        )
    if kernel is not None:
        events_per_sec, events = kernel
        table_rows.append(("kernel", f"N={kernel_n}", events_per_sec))
        json_rows.append(
            {"metric": "kernel.events_per_sec", "n": kernel_n,
             "value": events_per_sec, "unit": "ev/s"}
        )
        json_rows.append(
            {"metric": "kernel.events", "n": kernel_n,
             "value": events, "unit": "count"}
        )

    notes = []
    tree_lo = windows.get(("tree", min(ns)))
    tree_hi = windows.get(("tree", max(ns)))
    if tree_lo and tree_hi:
        growth = tree_hi / tree_lo
        json_rows.append(
            {"metric": "ratio.tree_window_growth", "n": max(ns),
             "value": growth, "unit": "x"}
        )
        notes.append(
            f"tree window N={max(ns)} vs N={min(ns)}: {growth:.2f}x "
            f"(ceiling {MAX_TREE_GROWTH:.0f}x)"
        )
    if kernel is not None:
        notes.append(f"kernel ev/s is best of {reps} (not gated)")
    path = write_bench_json("SCALE", json_rows)

    print()
    print(
        format_table(
            f"Rack-scale fan-out -- arms {', '.join(arms)}",
            ["arm", "scale", "value"],
            table_rows,
            note="; ".join(notes),
        )
    )
    print(f"results: {path}")

    if tree_lo and tree_hi and max(ns) >= 4 * min(ns):
        benchmark.extra_info["tree_window_growth"] = tree_hi / tree_lo
        assert tree_hi <= MAX_TREE_GROWTH * tree_lo, (
            f"tree window grew {tree_hi / tree_lo:.2f}x from N={min(ns)} "
            f"to N={max(ns)} (ceiling {MAX_TREE_GROWTH:.0f}x)"
        )
        flat_lo = windows.get(("flat", min(ns)))
        flat_hi = windows.get(("flat", max(ns)))
        if flat_lo and flat_hi:
            # The ablation: flat fan-out scales (at least) linearly,
            # strictly worse than the tree at the same N.
            assert flat_hi / flat_lo > tree_hi / tree_lo
            assert flat_hi > tree_hi

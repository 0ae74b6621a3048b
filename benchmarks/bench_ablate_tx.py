"""Ablation: rdx_tx staged flip vs in-place RDMA overwrite (§3.5 #1).

Without the transaction primitive, an updater overwrites the live
image in place and relies on cache eviction to propagate it; while
the landing + eviction window is open, the data path's view mixes old
and new cache lines and decoding the torn image crashes the sandbox.
With rdx_tx the new image is staged at a fresh address and a single
qword flip commits it -- the data path never sees a partial object.

The bench alternates between two same-length images under heavy cache
pressure (CPKI 60) and counts data-path crashes per scheme.
"""

from repro.core.api import rdx_cc_event, rdx_tx
from repro.ebpf.stress import make_stress_program
from repro.errors import SandboxCrash
from repro.exp.harness import format_table, make_testbed

IMAGE_INSNS = 40_000
UPDATES = 12
CPKI = 60.0


def run_mode(use_tx: bool) -> tuple[int, int]:
    bed = make_testbed(n_hosts=1, cores_per_host=4, cpki=CPKI)
    v1 = make_stress_program(IMAGE_INSNS, seed=1, name="ext")
    v2 = make_stress_program(IMAGE_INSNS, seed=2, name="ext")
    bed.sim.run_process(bed.control.inject(bed.codeflow, v1, "ingress"))
    record = bed.codeflow.deployed["ext"]

    linked = {}
    for version in (v1, v2):
        entry = bed.sim.run_process(
            bed.control.prepare_for(bed.codeflow, version)
        )
        linked[version.name + str(version.prog_id)] = bed.codeflow.linker.link(
            entry.binary
        )[0]
    images = list(linked.values())
    assert len(images[0].code) == len(images[1].code)

    crashes = 0
    executions = 0
    stop = {"done": False}

    def data_path():
        nonlocal crashes, executions
        while not stop["done"]:
            try:
                result, cost = bed.sandbox.run_hook("ingress", bytes(256))
                if result is not None:
                    executions += 1
                yield from bed.host.cpu.run(cost)
            except SandboxCrash:
                crashes += 1
                bed.sandbox.crashed = False  # restart the pod
            yield bed.sim.timeout(5.0)

    def updater():
        for round_index in range(UPDATES):
            image = images[round_index % 2]
            if use_tx:
                # Staged write + pointer flip (the rdx_tx discipline).
                new_addr = bed.codeflow.code_allocator.alloc(len(image.code), 64)
                hook_addr = bed.sandbox.hook_table.slot_addr("ingress")
                yield from rdx_tx(
                    bed.codeflow, image.code, new_addr, hook_addr, new_addr
                )
                yield from rdx_cc_event(bed.codeflow, hook_addr, 8)
            else:
                # Vanilla: overwrite the live image in place; the CPU
                # picks the change up line by line as eviction refills.
                yield from bed.codeflow.sync.write(record.code_addr, image.code)
            yield bed.sim.timeout(150.0)
        stop["done"] = True

    bed.sim.spawn(data_path(), name="datapath")
    bed.sim.run_process(updater())
    stop["done"] = True
    bed.sim.run(until=bed.sim.now + 50)
    return crashes, executions


def test_bench_ablate_tx(benchmark):
    results = benchmark.pedantic(
        lambda: (run_mode(use_tx=False), run_mode(use_tx=True)),
        rounds=1,
        iterations=1,
    )
    (vanilla_crashes, vanilla_execs), (tx_crashes, tx_execs) = results
    print()
    print(
        format_table(
            "Ablation: in-place overwrite vs rdx_tx staged flip",
            ["scheme", "data-path crashes", "clean executions"],
            [
                ("in-place RDMA write", vanilla_crashes, vanilla_execs),
                ("rdx_tx staged flip", tx_crashes, tx_execs),
            ],
            note="crashes = torn images decoded mid-update (§3.5 issue 1)",
        )
    )
    assert vanilla_crashes > 0  # the hazard is real
    assert tx_crashes == 0  # and rdx_tx removes it
    assert tx_execs > 0

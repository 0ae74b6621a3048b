#!/usr/bin/env python3
"""Case study: microsecond rollback + hot patching (§4).

A faulty extension version ships and the data path starts crashing.
The RDX control plane rolls the hook back to the previous resident
image with an epoch fence and one transactional pointer flip --
microseconds, even while the host CPU is saturated -- then hot-patches
the fixed version through the normal CodeFlow pipeline.

Run:  python examples/rollback_hotpatch.py
"""

from repro.ebpf import Interpreter, make_stress_program
from repro.errors import SandboxCrash
from repro.exp.harness import make_testbed


def main() -> None:
    bed = make_testbed(n_hosts=1, cores_per_host=4)
    sim = bed.sim

    stable = make_stress_program(1_300, seed=1, name="policy")
    buggy = make_stress_program(1_300, seed=2, name="policy")
    fixed = make_stress_program(1_300, seed=3, name="policy")

    # v1 ships and works.
    sim.run_process(bed.control.inject(bed.codeflow, stable, "ingress"))
    packet = bytes(range(256))
    result, _ = bed.sandbox.run_hook("ingress", packet)
    print(f"v1 live: r0={result.r0:#x}")

    # v2 ships... and its image gets corrupted on the way to memory.
    sim.run_process(bed.control.inject(bed.codeflow, buggy, "ingress"))
    live = bed.codeflow.deployed["policy"]
    bed.host.memory.write(live.code_addr + 17, b"\xde\xad")
    bed.host.cache.flush(live.code_addr, live.code_len)
    try:
        bed.sandbox.run_hook("ingress", packet)
    except SandboxCrash as crash:
        print(f"v2 crashes the data path: {crash}")

    # Saturate the host CPU -- the situation where agent-path recovery
    # locks out (§2.2 Obs 3 / §4).
    def burner():
        while sim.now < 10_000_000:
            yield from bed.host.cpu.run(950)
            yield sim.timeout(50)

    for _ in range(8):
        sim.spawn(burner())
    mark = sim.now
    sim.run(until=sim.now + 20_000)  # let the load saturate the cores
    load = bed.host.cpu.utilization(since_us=mark)

    # RDX rollback: fence + pointer flip + flush; no host CPU on the path.
    record = sim.run_process(bed.codeflow.rollback("policy"))
    bed.sandbox.crashed = False
    result, _ = bed.sandbox.run_hook("ingress", packet)
    expected = Interpreter().run(stable.insns, packet).r0
    print(f"rolled back to v1 in {record.duration_us:.1f} us under "
          f"{load * 100:.0f}% CPU load "
          f"(correct: {result.r0 == expected})")

    # Hot patch v3 through the normal pipeline, onto the same hook.
    report = sim.run_process(bed.control.inject(bed.codeflow, fixed, "ingress"))
    result, _ = bed.sandbox.run_hook("ingress", packet)
    expected = Interpreter().run(fixed.insns, packet).r0
    print(f"hot-patched v3 in {report.total_us:.1f} us "
          f"(correct: {result.r0 == expected})")


if __name__ == "__main__":
    main()

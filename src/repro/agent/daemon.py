"""The per-node agent daemon (sidecar / eBPF controller analogue).

Every operation charges host CPU at the same priority as application
work: that shared-resource coupling is exactly what the paper's Fig 2c
and the Redis experiment measure.  The functional steps are real --
the verifier genuinely runs, the JIT genuinely emits the image, the
link genuinely resolves against the local sandbox GOT -- so an agent
and RDX deploy *identical* data-path artifacts by different routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro import params
from repro.errors import DeployError
from repro.ebpf.jit import Relocation, RelocKind
from repro.ebpf.loader import LocalLoader
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.net.rpc import RpcEndpoint
from repro.net.topology import Host
from repro.sandbox.sandbox import Sandbox
from repro.sim.trace import TraceRecorder


@dataclass
class AgentStats:
    """Counters + per-phase CPU time burned by one agent."""

    injections: int = 0
    removals: int = 0
    polls: int = 0
    verify_cpu_us: float = 0.0
    jit_cpu_us: float = 0.0
    attach_cpu_us: float = 0.0
    fixed_cpu_us: float = 0.0
    poll_cpu_us: float = 0.0


@dataclass
class InjectionBreakdown:
    """Per-phase wall-clock times of one agent injection (Fig 4b)."""

    program_name: str
    rpc_us: float = 0.0
    fixed_us: float = 0.0
    verify_us: float = 0.0
    jit_us: float = 0.0
    attach_us: float = 0.0
    total_us: float = 0.0

    def phases(self) -> dict[str, float]:
        return {
            "rpc": self.rpc_us,
            "fixed": self.fixed_us,
            "verify": self.verify_us,
            "jit": self.jit_us,
            "attach": self.attach_us,
        }


class NodeAgent:
    """Agent daemon managing one sandbox on one host."""

    def __init__(
        self,
        host: Host,
        sandbox: Sandbox,
        service: Optional[str] = None,
        trace: Optional[TraceRecorder] = None,
        priority: int = 0,
    ):
        self.host = host
        self.sandbox = sandbox
        self.sim = host.sim
        self.loader = LocalLoader(arch=sandbox.arch)
        self.stats = AgentStats()
        self.trace = trace or TraceRecorder(enabled=False)
        self.priority = priority
        #: Preemption quantum for long compile phases, microseconds.
        self.quantum_us = 1_000.0
        self.breakdowns: list[InjectionBreakdown] = []
        self.service = service or f"agent:{sandbox.name}"
        self.rpc = RpcEndpoint(host, self.service)
        self.rpc.register("load", self._rpc_load)
        self.rpc.register("remove", self._rpc_remove)
        self._poll_proc = None

    # -- injection (the §2.2 Obs 1 path) -------------------------------------

    def inject(
        self,
        program: BpfProgram,
        hook_name: str,
        maps: Sequence[BpfMap] = (),
    ) -> Generator:
        """Validate + JIT + link + attach locally; returns the breakdown.

        Every phase consumes host CPU, so under data-path load these
        steps queue behind (and slow down) application work.
        """
        breakdown = InjectionBreakdown(program_name=program.name)
        start = self.sim.now
        self.trace.record(start, "agent.inject.start", ext_id=program.prog_id)

        # Fixed agent overhead: config parse, fd setup, bookkeeping.
        mark = self.sim.now
        yield from self.host.cpu.run(
            params.AGENT_FIXED_OVERHEAD_US, self.priority
        )
        self.stats.fixed_cpu_us += params.AGENT_FIXED_OVERHEAD_US
        breakdown.fixed_us = self.sim.now - mark

        # Verify + JIT: the real toolchain runs; simulated cost charged
        # in preemptible 1 ms slices (a fair scheduler would not let
        # the verifier monopolize a core under data-path load).
        binary, verify_cost, jit_cost = self._compile(program, maps)
        mark = self.sim.now
        yield from self.host.cpu.run(
            verify_cost, self.priority, quantum_us=self.quantum_us
        )
        self.stats.verify_cpu_us += verify_cost
        breakdown.verify_us = self.sim.now - mark

        mark = self.sim.now
        yield from self.host.cpu.run(
            jit_cost, self.priority, quantum_us=self.quantum_us
        )
        self.stats.jit_cpu_us += jit_cost
        breakdown.jit_us = self.sim.now - mark

        # Link against the local GOT and attach.
        mark = self.sim.now
        linked = binary.link(self._resolve_local)
        yield from self.host.cpu.run(params.AGENT_ATTACH_US, self.priority)
        self.stats.attach_cpu_us += params.AGENT_ATTACH_US
        self.sandbox.install_local(program, linked, hook_name)
        breakdown.attach_us = self.sim.now - mark

        breakdown.total_us = self.sim.now - start
        self.stats.injections += 1
        self.breakdowns.append(breakdown)
        self.trace.record(
            self.sim.now,
            "agent.inject.done",
            ext_id=program.prog_id,
            total_us=breakdown.total_us,
        )
        return breakdown

    def _compile(self, program, maps: Sequence[BpfMap]):
        """Run the right toolchain for the extension family.

        Returns (unlinked binary, verify_cost_us, jit_cost_us).  Wasm
        modules cost :data:`repro.params.WASM_COMPILE_FACTOR` x more
        per instruction than eBPF (heavier validation + codegen).
        """
        from repro.wasm.compiler import wasm_compile
        from repro.wasm.module import WasmModule
        from repro.wasm.validator import wasm_validate

        if isinstance(program, WasmModule):
            wasm_validate(program)
            binary = wasm_compile(program, arch=self.sandbox.arch)
            factor = params.WASM_COMPILE_FACTOR
            verify_cost = params.verify_cost_us(len(program.insns)) * factor
            jit_cost = params.jit_cost_us(len(program.insns)) * factor
            return binary, verify_cost, jit_cost
        result = self.loader.verify_and_jit(program, maps)
        return result.binary, result.verify_cost_us, result.jit_cost_us

    def _resolve_local(self, reloc: Relocation) -> int:
        if reloc.kind is RelocKind.HELPER:
            return self.sandbox.got.address_of(reloc.symbol)
        if reloc.kind is RelocKind.MAP:
            symbol = self.sandbox.got.lookup(reloc.symbol)
            if symbol is None:
                raise DeployError(
                    f"agent on {self.host.name}: no local map {reloc.symbol!r}"
                )
            return symbol.address
        raise DeployError(f"unknown relocation {reloc.kind}")

    def remove(self, program: BpfProgram) -> Generator:
        """Detach an extension (ref-counted ctx_teardown path)."""
        yield from self.host.cpu.run(
            params.AGENT_FIXED_OVERHEAD_US / 2, self.priority
        )
        self.stats.fixed_cpu_us += params.AGENT_FIXED_OVERHEAD_US / 2
        self.sandbox.ctx_teardown(program.prog_id)
        self.stats.removals += 1

    # -- RPC surface (controller-driven path) ------------------------------------

    def _rpc_load(self, args) -> Generator:
        program, hook_name, maps = args
        breakdown = yield from self.inject(program, hook_name, maps)
        return breakdown.total_us

    def _rpc_remove(self, args) -> Generator:
        (program,) = args
        yield from self.remove(program)
        return True

    # -- periodic state polling (§2.2 Obs 3 second channel) ------------------------

    def start_state_polling(
        self,
        interval_us: float = params.AGENT_STATE_POLL_INTERVAL_US,
        cost_us: float = params.AGENT_STATE_POLL_US,
        duration_us: Optional[float] = None,
    ) -> None:
        """Poll extension XState on the local CPU every ``interval_us``."""

        def poller():
            started = self.sim.now
            while duration_us is None or self.sim.now - started < duration_us:
                yield self.sim.timeout(interval_us)
                yield from self.host.cpu.run(cost_us, self.priority)
                self.stats.polls += 1
                self.stats.poll_cpu_us += cost_us

        self._poll_proc = self.sim.spawn(poller(), name=f"{self.service}.poll")

    def stop_state_polling(self) -> None:
        if self._poll_proc is not None and self._poll_proc.is_alive:
            self._poll_proc.interrupt("stop polling")
        self._poll_proc = None

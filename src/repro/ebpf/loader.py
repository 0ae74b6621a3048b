"""The host-local load pipeline (what a per-node agent runs).

``LocalLoader`` performs the *functional* steps -- verify, JIT, link --
exactly as the kernel + libbpf would on the local host.  It knows
nothing about simulated time; the agent daemon (:mod:`repro.agent`)
wraps each step with the CPU-time charges from :mod:`repro.params`,
because those cycles burning on the local host are exactly what the
paper's agent baseline pays for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro import params
from repro.ebpf.jit import JitBinary, Relocation, jit_compile
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import MapGeometry, VerifierStats, verify


@dataclass
class LoadResult:
    """Everything produced by a local verify+JIT+link pass."""

    program: BpfProgram
    stats: VerifierStats
    binary: JitBinary
    #: Simulated host-CPU cost of each phase, microseconds.
    verify_cost_us: float = 0.0
    jit_cost_us: float = 0.0

    @property
    def total_compile_cost_us(self) -> float:
        return self.verify_cost_us + self.jit_cost_us


class LocalLoader:
    """Verify + JIT + (optionally) link a program on the local host."""

    def __init__(self, arch: str = "x86_64", ctx_size: int = 256):
        self.arch = arch
        self.ctx_size = ctx_size
        # Functional memoization only: verification is deterministic,
        # so re-running it on an identical image is pure waste for the
        # *host machine running the simulation*.  The simulated CPU
        # cost is still charged in full on every load -- real agents
        # have no cross-load verifier cache.  Keyed by everything the
        # verdict and the image depend on: tag, map names, geometry
        # (arch and ctx_size are this loader's own).
        self._memo: dict[tuple, LoadResult] = {}

    def geometry_for(self, maps: Sequence[BpfMap]) -> dict[int, MapGeometry]:
        return {
            slot: MapGeometry(key_size=m.key_size, value_size=m.value_size)
            for slot, m in enumerate(maps)
        }

    def verify_and_jit(
        self, program: BpfProgram, maps: Sequence[BpfMap] = ()
    ) -> LoadResult:
        """Run the full local pipeline; raises on rejection.

        The returned :class:`LoadResult` carries both the functional
        artifacts and the simulated CPU costs the caller must charge.
        """
        geometry = self.geometry_for(maps)
        memo_key = (
            program.tag(), tuple(program.map_names), tuple(geometry.values())
        )
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        stats = verify(program, geometry, ctx_size=self.ctx_size)
        binary = jit_compile(program, arch=self.arch)
        assert program.metadata is not None
        program.metadata.verified_insns = stats.states_visited
        program.metadata.jited = True
        program.metadata.jited_len = len(binary.code)
        program.metadata.xlated_len = program.size_bytes()
        result = LoadResult(
            program=program,
            stats=stats,
            binary=binary,
            verify_cost_us=params.verify_cost_us(len(program.insns)),
            jit_cost_us=params.jit_cost_us(len(program.insns)),
        )
        self._memo[memo_key] = result
        return result

    @staticmethod
    def link(
        binary: JitBinary, resolve: Callable[[Relocation], Optional[int]]
    ) -> JitBinary:
        """Link against a resolver (typically a sandbox GOT lookup)."""
        return binary.link(resolve)

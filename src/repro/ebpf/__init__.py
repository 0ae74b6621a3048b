"""A working eBPF subset: ISA, assembler, verifier, interpreter, JIT, maps.

This is the paper's primary proving ground (§6): the agent baseline
verifies and JIT-compiles these programs on the target host's CPU,
while RDX does both remotely and injects the finished binary.  The
toolchain is functional, not a mock -- programs compute real results,
the verifier genuinely rejects unsafe code, and JIT output carries
relocation records that must be linked before execution.

Instruction encoding follows the kernel's fixed 8-byte format
(opcode, dst/src nibbles, 16-bit offset, 32-bit immediate) with the
standard class/op/source bit layout; see :mod:`repro.ebpf.opcodes`.
"""

from repro.ebpf.insn import Insn, decode_program, encode_program
from repro.ebpf.asm import Asm
from repro.ebpf.program import BpfProgram, BpfProgMetadata, ProgType
from repro.ebpf.verifier import VerifierStats, verify
from repro.ebpf.interpreter import ExecutionResult, Interpreter
from repro.ebpf.jit import JitBinary, Relocation, RelocKind, jit_compile
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.helpers import HELPERS, Helper, helper_by_id
from repro.ebpf.stress import make_stress_program, STRESS_SIZES
from repro.ebpf.loader import LocalLoader

__all__ = [
    "Asm",
    "BpfMap",
    "BpfProgMetadata",
    "BpfProgram",
    "ExecutionResult",
    "HELPERS",
    "Helper",
    "Insn",
    "Interpreter",
    "JitBinary",
    "LocalLoader",
    "MapType",
    "ProgType",
    "RelocKind",
    "Relocation",
    "STRESS_SIZES",
    "VerifierStats",
    "decode_program",
    "encode_program",
    "helper_by_id",
    "jit_compile",
    "make_stress_program",
    "verify",
]

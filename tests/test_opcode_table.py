"""The instruction table, and the bounded proof that a verified program runs.

``ebpf/opcodes.OPCODES`` is the one place an opcode's meaning is
written; the verifier, the interpreter and the JIT build what they know
of opcodes from it.  The structure tests hold that: the bytes the
verifier can step, the bytes the interpreter runs and the JIT's call
opcodes are each exactly what the table says.

The sweep checks what the seam between them used to break: every
opcode byte, as the one instruction between a fixed prologue and
``exit``, over a grid of registers, immediates and offsets.  Whatever
``verify`` accepts must run in the interpreter without a fault, survive
``jit_compile`` -> ``link`` -> ``decode_image`` unchanged, and name in
``helpers_called`` exactly the helpers the image relocates.
"""

import itertools

from repro.errors import SandboxError, VerifierError
from repro.ebpf import opcodes as op
from repro.ebpf.insn import Insn
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.jit import (
    _CALL_OPCODES,
    _SEQUENTIAL_OPCODE,
    RelocKind,
    decode_image,
    jit_compile,
)
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import _LDDW_TAIL, _RULE, _UNSUPPORTED, verify
from tests.test_jit_oracle import _HELPER_ADDRESS, _HELPER_AT

EXIT = Insn(op.BPF_JMP | op.BPF_EXIT)


# -- structure ------------------------------------------------------------------

def test_the_verifier_steps_exactly_the_table():
    """Every byte with an entry has a rule; every other byte but the
    LDDW tail (``0x00``) is rejected before any rule runs."""
    stepped = {opcode for opcode in range(256) if _RULE[opcode] != _UNSUPPORTED}
    assert stepped == set(op.OPCODES) | {0}
    assert _RULE[0] == _LDDW_TAIL


def _interpreted(opcode: int) -> str:
    """What running ``opcode`` once, then ``exit``, comes to."""
    meaning = op.OPCODES.get(opcode)
    insn = Insn(opcode, dst=op.R10, src=op.R10, off=-8, imm=5)
    if meaning is not None and meaning.kind in (op.KIND_JA, op.KIND_COND):
        insn = insn._replace(off=0)  # to the exit, taken or not
    body = [insn, Insn(0)] if opcode == op.LDDW else [insn]
    try:
        Interpreter().run(body + [EXIT], bytes(64))
    except SandboxError as fault:
        return str(fault)
    return "ran"


def test_the_interpreter_runs_exactly_the_table():
    outcomes = {opcode: _interpreted(opcode) for opcode in range(256)}
    reserved = {
        opcode for opcode, outcome in outcomes.items()
        if outcome == f"unsupported opcode {opcode:#04x}"
    }
    assert reserved == set(range(256)) - set(op.OPCODES)
    assert {outcomes[opcode] for opcode in op.OPCODES} == {"ran"}


def test_the_jit_relocates_exactly_the_table_calls():
    calls = {
        opcode for opcode, meaning in op.OPCODES.items()
        if meaning.kind == op.KIND_CALL
    }
    assert _CALL_OPCODES == calls == {0x85, 0x8D}
    sequential = {opcode for opcode in range(256) if _SEQUENTIAL_OPCODE[opcode]}
    assert sequential == calls | {op.LDDW}


def test_reserved_bytes():
    """The 16 reserved ALU / jump operations, the 32-bit jump class's
    ``ja`` / ``call`` / ``exit``, every load and store mode but
    ``BPF_MEM`` and every ``BPF_LD`` but ``LDDW`` have no entry."""
    reserved = set(range(256)) - set(op.OPCODES)
    by_class = {
        cls: sorted(b for b in reserved if b & op.CLASS_MASK == cls)
        for cls in range(8)
    }
    jmp32_control = [0x06, 0x0E, 0x86, 0x8E, 0x96, 0x9E]
    assert set(jmp32_control) <= reserved
    alu_and_jumps = {
        b for cls in (op.BPF_ALU, op.BPF_ALU64, op.BPF_JMP, op.BPF_JMP32)
        for b in by_class[cls]
    }
    assert sorted(alu_and_jumps - set(jmp32_control)) == [
        *range(0xE4, 0xE8), *range(0xEC, 0xF0), *range(0xF4, 0xF8), *range(0xFC, 0x100)
    ]
    for cls in (op.BPF_LDX, op.BPF_ST, op.BPF_STX):
        assert len(by_class[cls]) == 28
        assert all(b & op.MODE_MASK != op.BPF_MEM for b in by_class[cls])
    assert by_class[op.BPF_LD] == sorted({b for b in range(0, 256, 8)} - {op.LDDW})


# -- verified => runs -------------------------------------------------------------

#: Registers as the prologue leaves them: a scalar, the context
#: pointer, the frame pointer, never written.
REGS = (op.R2, op.R1, op.R10, op.R4)
IMMS = (0, 1, -1, 32, 64, 2**31 - 1, -(2**31))
OFFS = (0, 1, -1, 8, 2**15 - 1, -(2**15))
CTX = bytes(range(64))
PROLOGUE = (
    Insn(op.BPF_ALU64 | op.BPF_MOV, dst=op.R0, imm=7),
    Insn(op.BPF_ALU64 | op.BPF_MOV, dst=op.R2, imm=3),
)
#: Programs in the grid, and how many ``verify`` accepts.
GRID = 256 * len(REGS) ** 2 * len(IMMS) * len(OFFS)
ACCEPTED = 8_573


def _resolve(reloc) -> int:
    return _HELPER_ADDRESS[reloc.symbol]


def sweep():
    """``(accepted, faults, round-trip mismatches, helper mismatches)``
    over the grid; each list names the instruction it failed on."""
    accepted, faults, round_trips, helpers = 0, [], [], []
    interpreter = Interpreter()
    for opcode, dst, src, imm, off in itertools.product(
        range(256), REGS, REGS, IMMS, OFFS
    ):
        insn = Insn(opcode, dst, src, off, imm)
        body = (insn, Insn(0)) if opcode == op.LDDW else (insn,)
        program = BpfProgram(PROLOGUE + body + (EXIT,), prog_id=0)
        try:
            stats = verify(program, ctx_size=len(CTX))
        except VerifierError:
            continue
        accepted += 1
        try:
            interpreter.run(program.insns, CTX)
        except SandboxError as fault:
            faults.append((insn, str(fault)))
        binary = jit_compile(program)
        decoded = decode_image(binary.link(_resolve).code, _HELPER_AT, {}.get)
        if decoded != list(program.insns):
            round_trips.append(insn)
        relocated = sorted(
            {r.symbol for r in binary.relocations if r.kind is RelocKind.HELPER}
        )
        if list(stats.helpers_called) != relocated:
            helpers.append(insn)
    return accepted, faults, round_trips, helpers


def test_a_verified_instruction_runs():
    assert GRID == 172_032
    accepted, faults, round_trips, helpers = sweep()
    assert faults == []
    assert round_trips == []
    assert helpers == []
    assert accepted == ACCEPTED

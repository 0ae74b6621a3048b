"""The eBPF instruction set: opcode constants, mirroring
<linux/bpf_common.h> + <linux/bpf.h>, and what each opcode means.

Only the names are re-derived here; the numeric layout is the kernel's:
the low 3 bits select the instruction class, and the meaning of the
high bits depends on the class (ALU/JMP: operation + source bit;
LD/ST: size + mode).

:data:`OPCODES` is the one place an opcode's meaning is written.  The
verifier's per-opcode rules, the interpreter's dispatch and the JIT's
call opcodes are all built from it at import, so a byte it has no
entry for -- a reserved one -- is rejected by the first and faults in
the second alike: nothing can be verified that cannot run.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple, Optional

# -- instruction classes (low 3 bits) --------------------------------

BPF_LD = 0x00
BPF_LDX = 0x01
BPF_ST = 0x02
BPF_STX = 0x03
BPF_ALU = 0x04
BPF_JMP = 0x05
BPF_JMP32 = 0x06
BPF_ALU64 = 0x07

CLASS_MASK = 0x07

# -- ALU / JMP source bit ---------------------------------------------

BPF_K = 0x00  # immediate operand
BPF_X = 0x08  # register operand
SRC_MASK = 0x08

# -- ALU operations (high 4 bits) --------------------------------------

BPF_ADD = 0x00
BPF_SUB = 0x10
BPF_MUL = 0x20
BPF_DIV = 0x30
BPF_OR = 0x40
BPF_AND = 0x50
BPF_LSH = 0x60
BPF_RSH = 0x70
BPF_NEG = 0x80
BPF_MOD = 0x90
BPF_XOR = 0xA0
BPF_MOV = 0xB0
BPF_ARSH = 0xC0
BPF_END = 0xD0

# -- JMP operations -----------------------------------------------------

BPF_JA = 0x00
BPF_JEQ = 0x10
BPF_JGT = 0x20
BPF_JGE = 0x30
BPF_JSET = 0x40
BPF_JNE = 0x50
BPF_JSGT = 0x60
BPF_JSGE = 0x70
BPF_CALL = 0x80
BPF_EXIT = 0x90
BPF_JLT = 0xA0
BPF_JLE = 0xB0
BPF_JSLT = 0xC0
BPF_JSLE = 0xD0

OP_MASK = 0xF0

# -- LD/ST size (bits 3-4) ----------------------------------------------

BPF_W = 0x00  # 4 bytes
BPF_H = 0x08  # 2 bytes
BPF_B = 0x10  # 1 byte
BPF_DW = 0x18  # 8 bytes

SIZE_MASK = 0x18

SIZE_BYTES = {BPF_W: 4, BPF_H: 2, BPF_B: 1, BPF_DW: 8}

# -- LD/ST mode (bits 5-7) ------------------------------------------------

BPF_IMM = 0x00
BPF_ABS = 0x20
BPF_IND = 0x40
BPF_MEM = 0x60

MODE_MASK = 0xE0

# -- registers ---------------------------------------------------------

R0 = 0  # return value
R1 = 1  # arg1 / ctx pointer on entry
R2 = 2
R3 = 3
R4 = 4
R5 = 5
R6 = 6  # callee-saved from here
R7 = 7
R8 = 8
R9 = 9
R10 = 10  # frame pointer (read-only)

MAX_REG = 10

#: Pseudo source register marking an LDDW as a map reference
#: (BPF_PSEUDO_MAP_FD in the kernel).
PSEUDO_MAP_FD = 1

#: Composite opcode of the 16-byte load-double-word-immediate.
LDDW = BPF_LD | BPF_DW | BPF_IMM  # 0x18

#: Stack size available below R10.
STACK_SIZE = 512

#: Kernel-style complexity budget enforced by the verifier.
MAX_INSNS = 1_000_000


# -- what each opcode means ------------------------------------------------

# What an instruction does: ``Opcode.kind``.
(
    KIND_ALU,  # dst = function(dst, operand)
    KIND_COND,  # if function(dst, operand): pc += off
    KIND_JA,  # pc += off
    KIND_CALL,  # r0 = helper imm (r1 .. r5)
    KIND_EXIT,  # return r0
    KIND_LDX,  # dst = *(size *)(src + off)
    KIND_ST,  # *(size *)(dst + off) = imm
    KIND_STX,  # *(size *)(dst + off) = src
    KIND_LDDW,  # dst = imm64, this slot's imm low, the next slot's high
) = range(1, 10)


class Opcode(NamedTuple):
    """What one opcode byte means, whatever the rest of the instruction
    holds."""

    kind: int
    #: ALU and conditional jumps: the operation, ``opcode & OP_MASK``.
    operation: int = 0
    #: ALU and conditional jumps: the right operand is the source
    #: register, not the immediate.  Stores: the value stored is.
    from_reg: bool = False
    #: ALU and conditional jumps: operand width in bits.
    bits: int = 0
    #: Loads and stores: bytes accessed.
    size: int = 0
    #: Conditional jumps: the comparison is signed.
    signed: bool = False
    #: ALU: the new ``dst``; conditional jumps: whether the jump is
    #: taken -- as a function of ``(dst, operand)``.
    function: Optional[Callable[[int, int], int]] = None


#: ALU operations whose operand is a shift count: taken modulo the
#: width, and as an immediate it must be below it.
SHIFTS = frozenset((BPF_LSH, BPF_RSH, BPF_ARSH))
#: ALU operations whose operand divides: as an immediate it must not be
#: zero (a zero register divisor gives 0, or leaves the dividend).
DIVISIONS = frozenset((BPF_DIV, BPF_MOD))


def _div(value: int, divisor: int) -> int:
    return value // divisor if divisor else 0


def _mod(value: int, divisor: int) -> int:
    return value % divisor if divisor else value


def _neg(value: int, _operand: int) -> int:
    return -value


def _arsh(bits: int) -> Callable[[int, int], int]:
    """The one operation whose function depends on the width: flipping
    the sign bit and taking it away reads the value as signed."""
    sign = 1 << (bits - 1)
    return lambda value, shift: ((value ^ sign) - sign) >> shift


def _byte_swap(value: int, imm: int) -> int:
    size = max(2, min(8, imm // 8)) if imm else 8
    low = value & ((1 << (size * 8)) - 1)
    return int.from_bytes(low.to_bytes(size, "little"), "big")


# Each ALU operation's and condition's function takes two operands
# already cut to the instruction's width.  It is the C-level
# ``operator`` function where one fits, so that executing the
# instruction costs no Python-level call: ``MOV`` is an ``or`` onto a
# destination read as zero, and ``JSET`` is taken when the ``and`` is
# not zero.  ``END`` swaps the destination's bytes, the immediate giving
# how many whatever the source bit says.
_ALU_FUNCTIONS = {
    BPF_ADD: operator.add,
    BPF_SUB: operator.sub,
    BPF_MUL: operator.mul,
    BPF_DIV: _div,
    BPF_OR: operator.or_,
    BPF_AND: operator.and_,
    BPF_LSH: operator.lshift,
    BPF_RSH: operator.rshift,
    BPF_NEG: _neg,
    BPF_MOD: _mod,
    BPF_XOR: operator.xor,
    BPF_MOV: operator.or_,
    BPF_ARSH: None,  # _arsh(width)
    BPF_END: _byte_swap,
}
#: condition -> (comparison, compares as signed)
_CONDITIONS = {
    BPF_JEQ: (operator.eq, False),
    BPF_JGT: (operator.gt, False),
    BPF_JGE: (operator.ge, False),
    BPF_JSET: (operator.and_, False),
    BPF_JNE: (operator.ne, False),
    BPF_JSGT: (operator.gt, True),
    BPF_JSGE: (operator.ge, True),
    BPF_JLT: (operator.lt, False),
    BPF_JLE: (operator.le, False),
    BPF_JSLT: (operator.lt, True),
    BPF_JSLE: (operator.le, True),
}


def _opcodes() -> dict[int, Opcode]:
    table = {}
    for source in (BPF_K, BPF_X):
        from_reg = source == BPF_X
        for cls, bits in ((BPF_ALU64, 64), (BPF_ALU, 32)):
            for operation, function in _ALU_FUNCTIONS.items():
                table[cls | operation | source] = Opcode(
                    KIND_ALU, operation, from_reg and operation != BPF_END, bits,
                    function=function or _arsh(bits),
                )
        for cls, bits in ((BPF_JMP, 64), (BPF_JMP32, 32)):
            for operation, (compare, signed) in _CONDITIONS.items():
                table[cls | operation | source] = Opcode(
                    KIND_COND, operation, from_reg, bits,
                    signed=signed, function=compare,
                )
        # The source bit means nothing to these three, and the 32-bit
        # jump class has none of them.
        table[BPF_JMP | BPF_JA | source] = Opcode(KIND_JA)
        table[BPF_JMP | BPF_CALL | source] = Opcode(KIND_CALL)
        table[BPF_JMP | BPF_EXIT | source] = Opcode(KIND_EXIT)
    for size_bits, size in SIZE_BYTES.items():
        table[BPF_LDX | BPF_MEM | size_bits] = Opcode(KIND_LDX, size=size)
        table[BPF_ST | BPF_MEM | size_bits] = Opcode(KIND_ST, size=size)
        table[BPF_STX | BPF_MEM | size_bits] = Opcode(
            KIND_STX, from_reg=True, size=size
        )
    table[LDDW] = Opcode(KIND_LDDW)
    return table


#: opcode byte -> what it means.  A byte with no entry is reserved: the
#: ALU and jump operations 0xE0 and 0xF0, ``call`` / ``exit`` / ``ja``
#: in the 32-bit jump class, every load and store mode but ``BPF_MEM``,
#: and every ``BPF_LD`` but ``LDDW``.
OPCODES: dict[int, Opcode] = _opcodes()


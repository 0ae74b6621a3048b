"""The 8-byte eBPF instruction and program-level encode/decode."""

from __future__ import annotations

import struct
from typing import Iterable, NamedTuple

from repro.errors import ReproError
from repro.ebpf import opcodes as op

_INSN = struct.Struct("<BBhi")  # opcode, dst|src<<4, off, imm


class _Fields(NamedTuple):
    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0


class Insn(_Fields):
    """One eBPF instruction: an immutable ``(opcode, dst, src, off, imm)``.

    The constructor range-checks every field.  ``imm`` may be written
    unsigned (up to ``2**32 - 1``, as :func:`lddw_pair` does); the
    encoder folds it to the signed 32-bit field, and decoding always
    yields the signed form.
    """

    __slots__ = ()

    def __new__(cls, opcode: int, dst: int = 0, src: int = 0, off: int = 0,
                imm: int = 0) -> "Insn":
        if not 0 <= dst <= op.MAX_REG:
            raise ReproError(f"bad dst register r{dst}")
        if not 0 <= src <= 15:
            raise ReproError(f"bad src register field {src}")
        if not -(2**15) <= off < 2**15:
            raise ReproError(f"offset {off} out of s16 range")
        if not -(2**31) <= imm < 2**32:
            raise ReproError(f"imm {imm} out of 32-bit range")
        return tuple.__new__(cls, (opcode, dst, src, off, imm))

    def _replace(self, **changes) -> "Insn":
        """A copy with some fields changed, range-checked like a new one."""
        return Insn(**{**self._asdict(), **changes})

    @property
    def is_lddw(self) -> bool:
        return self.opcode == op.LDDW

    def encode(self) -> bytes:
        imm = self.imm if self.imm < 2**31 else self.imm - 2**32
        return _INSN.pack(self.opcode, (self.src << 4) | self.dst, self.off, imm)

    @classmethod
    def decode(cls, data: bytes) -> "Insn":
        if len(data) != 8:
            raise ReproError(f"instruction must be 8 bytes, got {len(data)}")
        opcode, regs, off, imm = _INSN.unpack(data)
        return cls(opcode=opcode, dst=regs & 0xF, src=regs >> 4, off=off, imm=imm)

    def __repr__(self) -> str:
        return (
            f"Insn(op={self.opcode:#04x}, dst=r{self.dst}, src=r{self.src}, "
            f"off={self.off}, imm={self.imm})"
        )


def encode_program(insns: Iterable[Insn]) -> bytes:
    """Serialize a program to its flat 8-bytes-per-insn image."""
    pack = _INSN.pack
    return b"".join(
        [
            pack(opcode, (src << 4) | dst, off, imm if imm < 2**31 else imm - 2**32)
            for opcode, dst, src, off, imm in insns
        ]
    )


def decode_program(data: bytes) -> list[Insn]:
    """Parse a flat instruction image back into :class:`Insn` objects."""
    if len(data) % 8:
        raise ReproError(f"program image not a multiple of 8 bytes: {len(data)}")
    return [
        Insn(opcode, regs & 0xF, regs >> 4, off, imm)
        for opcode, regs, off, imm in _INSN.iter_unpack(data)
    ]


def lddw_pair(dst: int, imm64: int, src: int = 0) -> list[Insn]:
    """Build the two-instruction load-64-bit-immediate sequence.

    With ``src=PSEUDO_MAP_FD`` the immediate is a map reference to be
    resolved at load/link time rather than a literal.
    """
    low = imm64 & 0xFFFFFFFF
    high = (imm64 >> 32) & 0xFFFFFFFF
    return [
        Insn(opcode=op.LDDW, dst=dst, src=src, imm=low),
        Insn(opcode=0, dst=0, src=0, imm=high),
    ]

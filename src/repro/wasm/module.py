"""Wasm-filter bytecode: a fixed-width stack machine.

Each instruction encodes to 8 bytes (``opcode u8, flags u8, aux u16,
imm i32``) so images serialize exactly like other extension binaries.
Control flow is structured-by-construction: only forward branches,
expressed as relative instruction offsets (the validator enforces it).
"""

from __future__ import annotations

import enum
import itertools
import struct
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ReproError
from repro.ebpf.program import ProgramIdentity

_WINSTR = struct.Struct("<BBHi")
_module_ids = itertools.count(1)


class WOp(enum.IntEnum):
    """Stack-machine opcodes."""

    NOP = 0x00
    PUSH = 0x01  # push imm
    DROP = 0x02
    DUP = 0x03
    GET_LOCAL = 0x10  # aux = local index
    SET_LOCAL = 0x11
    ADD = 0x20
    SUB = 0x21
    MUL = 0x22
    DIV_U = 0x23
    REM_U = 0x24
    AND = 0x25
    OR = 0x26
    XOR = 0x27
    SHL = 0x28
    SHR_U = 0x29
    EQ = 0x30
    NE = 0x31
    LT_U = 0x32
    GT_U = 0x33
    LE_U = 0x34
    GE_U = 0x35
    BR = 0x40  # unconditional forward branch, imm = skip count
    BR_IF = 0x41  # pop cond; branch if nonzero
    CALL_HOST = 0x50  # imm = host-call id; pops args, pushes result
    RETURN = 0x60  # pop result, end execution


@dataclass(frozen=True)
class WInstr:
    """One encoded stack instruction."""

    op: WOp
    aux: int = 0
    imm: int = 0

    def encode(self) -> bytes:
        return _WINSTR.pack(int(self.op), 0, self.aux & 0xFFFF, self.imm)

    @classmethod
    def decode(cls, data: bytes) -> "WInstr":
        opcode, _flags, aux, imm = _WINSTR.unpack(data)
        try:
            op = WOp(opcode)
        except ValueError:
            raise ReproError(f"bad wasm opcode {opcode:#x}") from None
        return cls(op=op, aux=aux, imm=imm)


def _encode_module(insns: Iterable[WInstr]) -> bytes:
    return b"".join(instr.encode() for instr in insns)


@dataclass
class WasmModule(ProgramIdentity):
    """A filter module: instructions + declared locals + host imports.

    Exposes the same duck-typed surface the RDX control plane expects
    of a deployable program (``name``, ``prog_id``, ``insns``,
    ``tag()``, ``size_bytes()``, ``map_names``).
    """

    insns: tuple[WInstr, ...]
    name: str = "filter"
    n_locals: int = 4
    #: Host calls the module imports (validated against HOST_CALLS).
    imports: tuple[str, ...] = ()
    map_names: tuple[str, ...] = ()
    prog_id: int = field(default_factory=lambda: next(_module_ids))

    def __post_init__(self):
        self._seal(_encode_module, salt=b"wasm")


class WasmBuilder:
    """Fluent builder with label-based forward branches."""

    def __init__(self, name: str = "filter", n_locals: int = 4):
        self.name = name
        self.n_locals = n_locals
        self._insns: list[WInstr] = []
        self._labels: dict[str, int] = {}
        self._fixups: list[tuple[int, str]] = []
        self._imports: list[str] = []

    def emit(self, op: WOp, aux: int = 0, imm: int = 0) -> "WasmBuilder":
        self._insns.append(WInstr(op=op, aux=aux, imm=imm))
        return self

    def push(self, imm: int) -> "WasmBuilder":
        return self.emit(WOp.PUSH, imm=imm)

    def get_local(self, index: int) -> "WasmBuilder":
        return self.emit(WOp.GET_LOCAL, aux=index)

    def set_local(self, index: int) -> "WasmBuilder":
        return self.emit(WOp.SET_LOCAL, aux=index)

    def alu(self, op: WOp) -> "WasmBuilder":
        return self.emit(op)

    def call_host(self, name: str) -> "WasmBuilder":
        from repro.wasm.hostcalls import HOST_CALLS

        match = next(
            (hc for hc in HOST_CALLS.values() if hc.name == name), None
        )
        if match is None:
            raise ReproError(f"unknown host call {name!r}")
        if name not in self._imports:
            self._imports.append(name)
        return self.emit(WOp.CALL_HOST, imm=match.call_id)

    def label(self, name: str) -> "WasmBuilder":
        if name in self._labels:
            raise ReproError(f"duplicate label {name!r}")
        self._labels[name] = len(self._insns)
        return self

    def br(self, label: str) -> "WasmBuilder":
        self._fixups.append((len(self._insns), label))
        return self.emit(WOp.BR)

    def br_if(self, label: str) -> "WasmBuilder":
        self._fixups.append((len(self._insns), label))
        return self.emit(WOp.BR_IF)

    def ret(self) -> "WasmBuilder":
        return self.emit(WOp.RETURN)

    def build(self) -> WasmModule:
        insns = list(self._insns)
        for index, label in self._fixups:
            target = self._labels.get(label)
            if target is None:
                raise ReproError(f"undefined label {label!r}")
            old = insns[index]
            insns[index] = WInstr(op=old.op, aux=old.aux, imm=target - index - 1)
        return WasmModule(
            insns=insns,
            name=self.name,
            n_locals=self.n_locals,
            imports=tuple(self._imports),
        )

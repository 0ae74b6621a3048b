"""Reference interpreter for the eBPF subset.

Executes verified programs against a packet/context buffer, a stack,
and real :class:`~repro.ebpf.maps.BpfMap` objects.  Used three ways:

* functional correctness checks after deployment (the paper's §6
  "automated checks ensuring functional correctness"),
* differential testing against JIT round-trips, and
* data-path execution inside sandboxes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import SandboxError
from repro.ebpf import opcodes as op
from repro.ebpf.helpers import helper_by_id
from repro.ebpf.maps import BpfMap

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

#: Virtual address-space bases used during execution.
CTX_BASE = 0x0001_0000
STACK_TOP = 0x0002_0000
MAP_VALUE_BASE = 0x0010_0000
MAP_REF_BASE = 0x0040_0000
_STACK_BASE = STACK_TOP - op.STACK_SIZE

#: Runtime instruction budget (defense in depth behind the verifier).
DEFAULT_INSN_BUDGET = 4_000_000


def _operations() -> dict[int, tuple]:
    """The instruction table's ALU and conditional-jump opcodes, as
    opcode -> ``(is_jump, function, operand from a register, mask of
    the left operand, mask of the right operand, last)``.

    An ALU instruction is ``dst = function(dst & left, operand & right)
    & last``.  The masks carry what differs between operations: both
    are the width for most; a shift count is taken modulo the width,
    which is its low bits; ``MOV`` ignores the destination (masked to
    zero, then or-ed with the operand); the byte swap reads its size
    from the raw immediate.

    A jump is taken when ``function((dst & left) ^ last, (operand &
    right) ^ last)`` holds.  For a signed comparison ``last`` is the
    sign bit: flipping it in both operands turns the unsigned order of
    the results into the signed order of the operands.
    """
    table = {}
    for opcode, meaning in op.OPCODES.items():
        operation, bits = meaning.operation, meaning.bits
        width = (1 << bits) - 1
        if meaning.kind == op.KIND_ALU:
            left, right = width, width
            if operation in op.SHIFTS:
                right = bits - 1
            elif operation == op.BPF_MOV:
                left = 0
            elif operation == op.BPF_END:
                right = -1
            table[opcode] = (
                False, meaning.function, meaning.from_reg, left, right, width
            )
        elif meaning.kind == op.KIND_COND:
            table[opcode] = (
                True, meaning.function, meaning.from_reg, width, width,
                1 << (bits - 1) if meaning.signed else 0,
            )
    return table


_OPERATIONS = _operations()


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    r0: int
    insns_executed: int
    printk_lines: list[str] = field(default_factory=list)


class Interpreter:
    """Executes one program invocation at a time.

    ``maps`` supplies the live map object for each map slot the program
    references.  ``time_ns``/``cpu_id``/``prandom_seq`` parameterize
    the environment-dependent helpers deterministically.
    """

    def __init__(
        self,
        maps: Sequence[BpfMap] = (),
        time_ns: int = 0,
        cpu_id: int = 0,
        prandom_seq: Optional[Sequence[int]] = None,
        insn_budget: int = DEFAULT_INSN_BUDGET,
    ):
        self.maps = list(maps)
        self.time_ns = time_ns
        self._cpu_id = cpu_id
        self._prandom = itertools.cycle(prandom_seq or [0x5DEECE66])
        self.insn_budget = insn_budget
        self._ctx = b""
        self._stack = bytearray(op.STACK_SIZE)
        self._value_areas: dict[int, tuple[BpfMap, bytes]] = {}
        self._next_value_base = MAP_VALUE_BASE
        self._printk: list[str] = []

    # -- helper runtime surface (called from helpers.py impls) ----------

    def _map_from_ref(self, map_ref: int) -> BpfMap:
        slot = map_ref - MAP_REF_BASE
        if not 0 <= slot < len(self.maps):
            raise SandboxError(f"bad map reference {map_ref:#x}")
        return self.maps[slot]

    def map_lookup(self, map_ref: int, key_addr: int) -> int:
        bpf_map = self._map_from_ref(map_ref)
        key = self._read_mem(key_addr, bpf_map.key_size)
        if bpf_map.lookup(key) is None:
            return 0
        base = self._next_value_base
        self._next_value_base += max(64, bpf_map.value_size + 16)
        self._value_areas[base] = (bpf_map, key)
        return base

    def map_update(
        self, map_ref: int, key_addr: int, value_addr: int, flags: int
    ) -> int:
        bpf_map = self._map_from_ref(map_ref)
        key = self._read_mem(key_addr, bpf_map.key_size)
        value = self._read_mem(value_addr, bpf_map.value_size * bpf_map.n_cpus)
        return bpf_map.update(key, value, flags)

    def map_delete(self, map_ref: int, key_addr: int) -> int:
        bpf_map = self._map_from_ref(map_ref)
        key = self._read_mem(key_addr, bpf_map.key_size)
        return bpf_map.delete(key)

    def ktime_ns(self) -> int:
        return self.time_ns

    def prandom_u32(self) -> int:
        return next(self._prandom) & _U32

    def cpu_id(self) -> int:
        return self._cpu_id

    def trace_printk(self, fmt_addr: int, fmt_size: int) -> int:
        raw = self._read_mem(fmt_addr, fmt_size)
        self._printk.append(raw.split(b"\x00")[0].decode("latin1"))
        return len(raw)

    # -- memory ------------------------------------------------------------

    def _area_for(self, addr: int, size: int):
        if CTX_BASE <= addr and addr + size <= CTX_BASE + len(self._ctx):
            return ("ctx", addr - CTX_BASE)
        if _STACK_BASE <= addr and addr + size <= STACK_TOP:
            return ("stack", addr - _STACK_BASE)
        for base, (bpf_map, _key) in self._value_areas.items():
            if base <= addr and addr + size <= base + bpf_map.value_size:
                return ("map_value", (base, addr - base))
        raise SandboxError(f"bad memory access [{addr:#x}, +{size})")

    def _read_mem(self, addr: int, size: int) -> bytes:
        kind, where = self._area_for(addr, size)
        if kind == "ctx":
            return self._ctx[where : where + size]
        if kind == "stack":
            return bytes(self._stack[where : where + size])
        base, offset = where
        bpf_map, key = self._value_areas[base]
        value = bpf_map.lookup(key)
        if value is None:
            raise SandboxError("map value pointer went stale")
        return value[offset : offset + size]

    def _write_mem(self, addr: int, data: bytes) -> None:
        kind, where = self._area_for(addr, len(data))
        if kind == "ctx":
            raise SandboxError("ctx is read-only")
        if kind == "stack":
            self._stack[where : where + len(data)] = data
            return
        base, offset = where
        bpf_map, key = self._value_areas[base]
        value = bytearray(bpf_map.lookup(key) or b"")
        value[offset : offset + len(data)] = data
        bpf_map.update(key, bytes(value))

    # -- execution ----------------------------------------------------------

    def run(self, insns: Sequence[tuple], ctx: bytes = b"") -> ExecutionResult:
        """Execute ``insns`` with ``ctx`` as the context buffer.

        An instruction is any ``(opcode, dst, src, off, imm)`` tuple:
        an :class:`~repro.ebpf.insn.Insn`, or what ``decode_image``
        returns.
        """
        self._ctx = ctx = bytes(ctx)
        self._stack = stack = bytearray(op.STACK_SIZE)
        self._value_areas.clear()
        self._next_value_base = MAP_VALUE_BASE
        self._printk = []
        regs = [0] * 11
        regs[op.R1] = CTX_BASE
        regs[op.R10] = STACK_TOP
        ctx_end = CTX_BASE + len(ctx)
        count = len(insns)
        operation_of = _OPERATIONS.get
        meaning_of = op.OPCODES.get
        pc = 0
        for executed in range(1, self.insn_budget + 1):
            if not 0 <= pc < count:
                raise SandboxError(f"pc {pc} out of range")
            opcode, dst, src, off, imm = insns[pc]
            pc += 1

            operation = operation_of(opcode)
            if operation is not None:
                is_jump, function, from_reg, left, right, last = operation
                operand = (regs[src] if from_reg else imm) & right
                if not is_jump:
                    regs[dst] = function(regs[dst] & left, operand) & last
                elif function((regs[dst] & left) ^ last, operand ^ last):
                    pc += off
                continue

            meaning = meaning_of(opcode)
            if meaning is None:
                raise SandboxError(f"unsupported opcode {opcode:#04x}")
            # Loads and stores find the context and the stack here, by
            # the bounds ``_area_for`` tests; a map value's area, and
            # every fault, is left to it.
            kind = meaning.kind
            if kind == op.KIND_LDX:
                size = meaning.size
                addr = (regs[src] + off) & _U64
                end = addr + size
                if CTX_BASE <= addr and end <= ctx_end:
                    data = ctx[addr - CTX_BASE : end - CTX_BASE]
                elif _STACK_BASE <= addr and end <= STACK_TOP:
                    data = stack[addr - _STACK_BASE : end - _STACK_BASE]
                else:
                    data = self._read_mem(addr, size)
                regs[dst] = int.from_bytes(data, "little")
            elif kind == op.KIND_STX or kind == op.KIND_ST:
                size = meaning.size
                value = regs[src] if meaning.from_reg else imm & _U64
                data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
                addr = (regs[dst] + off) & _U64
                end = addr + size
                in_ctx = CTX_BASE <= addr and end <= ctx_end
                if not in_ctx and _STACK_BASE <= addr and end <= STACK_TOP:
                    stack[addr - _STACK_BASE : end - _STACK_BASE] = data
                else:
                    self._write_mem(addr, data)
            elif kind == op.KIND_LDDW:
                if pc >= count:
                    raise SandboxError("truncated LDDW")
                if src == op.PSEUDO_MAP_FD:
                    regs[dst] = MAP_REF_BASE + (imm & _U32)
                else:
                    regs[dst] = (insns[pc][4] & _U32) << 32 | imm & _U32
                pc += 1
            elif kind == op.KIND_EXIT:
                return ExecutionResult(
                    r0=regs[op.R0],
                    insns_executed=executed,
                    printk_lines=self._printk,
                )
            elif kind == op.KIND_CALL:
                self._call(regs, imm)
            else:  # KIND_JA: every ALU and conditional jump is an operation
                pc += off
        raise SandboxError("instruction budget exhausted")

    def _call(self, regs: list[int], helper_id: int) -> None:
        helper = helper_by_id(helper_id)
        if helper is None:
            raise SandboxError(f"call to unknown helper {helper_id}")
        args = [regs[i] for i in range(1, 1 + len(helper.args))]
        result = helper.impl(self, *args)
        regs[op.R0] = (result or 0) & _U64
        for index in range(1, 6):
            regs[index] = 0

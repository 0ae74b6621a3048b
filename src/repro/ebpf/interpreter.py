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
from repro.ebpf.helpers import ArgType, helper_by_id
from repro.ebpf.insn import Insn
from repro.ebpf.maps import BpfMap

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1

#: Virtual address-space bases used during execution.
CTX_BASE = 0x0001_0000
STACK_TOP = 0x0002_0000
MAP_VALUE_BASE = 0x0010_0000
MAP_REF_BASE = 0x0040_0000

#: Runtime instruction budget (defense in depth behind the verifier).
DEFAULT_INSN_BUDGET = 4_000_000


def _signed(value: int, bits: int = 64) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


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
        return _signed(bpf_map.update(key, value, flags))

    def map_delete(self, map_ref: int, key_addr: int) -> int:
        bpf_map = self._map_from_ref(map_ref)
        key = self._read_mem(key_addr, bpf_map.key_size)
        return _signed(bpf_map.delete(key))

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
        stack_base = STACK_TOP - op.STACK_SIZE
        if stack_base <= addr and addr + size <= STACK_TOP:
            return ("stack", addr - stack_base)
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

    def run(self, insns: list[Insn], ctx: bytes = b"") -> ExecutionResult:
        """Execute ``insns`` with ``ctx`` as the context buffer."""
        self._ctx = bytes(ctx)
        self._stack = bytearray(op.STACK_SIZE)
        self._value_areas.clear()
        self._next_value_base = MAP_VALUE_BASE
        self._printk = []
        regs = [0] * 11
        regs[op.R1] = CTX_BASE
        regs[op.R10] = STACK_TOP
        pc = 0
        executed = 0
        while True:
            if executed >= self.insn_budget:
                raise SandboxError("instruction budget exhausted")
            if not 0 <= pc < len(insns):
                raise SandboxError(f"pc {pc} out of range")
            insn = insns[pc]
            executed += 1
            # An Insn is a tuple: index and unpack it here, which is
            # cheaper per step than five named-field reads.
            cls = insn[0] & op.CLASS_MASK

            if cls == op.BPF_ALU64 or cls == op.BPF_ALU:
                self._alu(regs, insn, cls)
                pc += 1
                continue

            opcode, dst, src, off, imm = insn
            if opcode == op.LDDW:
                if pc + 1 >= len(insns):
                    raise SandboxError("truncated LDDW")
                high = insns[pc + 1].imm & _U32
                low = imm & _U32
                if src == op.PSEUDO_MAP_FD:
                    regs[dst] = MAP_REF_BASE + low
                else:
                    regs[dst] = (high << 32) | low
                pc += 2
                continue

            if cls == op.BPF_LDX:
                size = op.SIZE_BYTES[opcode & op.SIZE_MASK]
                data = self._read_mem((regs[src] + off) & _U64, size)
                regs[dst] = int.from_bytes(data, "little")
                pc += 1
                continue

            if cls in (op.BPF_ST, op.BPF_STX):
                size = op.SIZE_BYTES[opcode & op.SIZE_MASK]
                value = regs[src] if cls == op.BPF_STX else imm & _U64
                data = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")
                self._write_mem((regs[dst] + off) & _U64, data)
                pc += 1
                continue

            if cls in (op.BPF_JMP, op.BPF_JMP32):
                operation = opcode & op.OP_MASK
                if operation == op.BPF_EXIT:
                    return ExecutionResult(
                        r0=regs[op.R0],
                        insns_executed=executed,
                        printk_lines=self._printk,
                    )
                if operation == op.BPF_CALL:
                    self._call(regs, insn)
                    pc += 1
                    continue
                if operation == op.BPF_JA:
                    pc += 1 + off
                    continue
                if self._jump_taken(regs, insn, cls):
                    pc += 1 + off
                else:
                    pc += 1
                continue

            raise SandboxError(f"unsupported opcode {opcode:#04x}")

    def _alu(self, regs: list[int], insn: Insn, cls: int) -> None:
        opcode, dst, src, _off, imm = insn
        operation = opcode & op.OP_MASK
        is64 = cls == op.BPF_ALU64
        mask = _U64 if is64 else _U32
        bits = 64 if is64 else 32
        if opcode & op.BPF_X:
            operand = regs[src] & mask
        else:
            operand = imm & mask
        value = regs[dst] & mask

        if operation == op.BPF_MOV:
            result = operand
        elif operation == op.BPF_ADD:
            result = value + operand
        elif operation == op.BPF_SUB:
            result = value - operand
        elif operation == op.BPF_MUL:
            result = value * operand
        elif operation == op.BPF_DIV:
            result = value // operand if operand else 0
        elif operation == op.BPF_MOD:
            result = value % operand if operand else value
        elif operation == op.BPF_OR:
            result = value | operand
        elif operation == op.BPF_AND:
            result = value & operand
        elif operation == op.BPF_XOR:
            result = value ^ operand
        elif operation == op.BPF_LSH:
            result = value << (operand % bits)
        elif operation == op.BPF_RSH:
            result = value >> (operand % bits)
        elif operation == op.BPF_ARSH:
            result = _signed(value, bits) >> (operand % bits)
        elif operation == op.BPF_NEG:
            result = -value
        elif operation == op.BPF_END:
            size = max(2, min(8, imm // 8)) if imm else 8
            result = int.from_bytes(
                (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little"), "big"
            )
        else:
            raise SandboxError(f"unsupported ALU op {operation:#x}")
        regs[dst] = result & mask

    def _jump_taken(self, regs: list[int], insn: Insn, cls: int) -> bool:
        opcode, dst, src, _off, imm = insn
        operation = opcode & op.OP_MASK
        bits = 32 if cls == op.BPF_JMP32 else 64
        mask = (1 << bits) - 1
        left = regs[dst] & mask
        if opcode & op.BPF_X:
            right = regs[src] & mask
        else:
            right = imm & mask
        sleft, sright = _signed(left, bits), _signed(right, bits)
        if operation == op.BPF_JEQ:
            return left == right
        if operation == op.BPF_JNE:
            return left != right
        if operation == op.BPF_JGT:
            return left > right
        if operation == op.BPF_JGE:
            return left >= right
        if operation == op.BPF_JLT:
            return left < right
        if operation == op.BPF_JLE:
            return left <= right
        if operation == op.BPF_JSET:
            return bool(left & right)
        if operation == op.BPF_JSGT:
            return sleft > sright
        if operation == op.BPF_JSGE:
            return sleft >= sright
        if operation == op.BPF_JSLT:
            return sleft < sright
        if operation == op.BPF_JSLE:
            return sleft <= sright
        raise SandboxError(f"unsupported jump op {operation:#x}")

    def _call(self, regs: list[int], insn: Insn) -> None:
        helper = helper_by_id(insn.imm)
        if helper is None:
            raise SandboxError(f"call to unknown helper {insn.imm}")
        args = [regs[i] for i in range(1, 1 + len(helper.args))]
        result = helper.impl(self, *args)
        regs[op.R0] = (result or 0) & _U64
        for index in range(1, 6):
            regs[index] = 0

"""Static verifier: abstract interpretation over the program CFG.

Models the kernel verifier's essentials (the parts whose *cost* the
paper measures and whose *function* RDX must relocate off the host):

* register typing (scalar vs ctx/stack/map-value pointers),
* stack-slot initialization and spill tracking,
* bounds checks on every memory access,
* null-check enforcement for ``bpf_map_lookup_elem`` results,
* helper-call signature checking,
* loop rejection (back edges) and a complexity budget,
* dead-code and fallthrough-off-the-end rejection.

State exploration uses per-pc memoization (the kernel's state pruning):
``states_visited`` is the cost driver that the agent baseline charges
to the host CPU via :func:`repro.params.verify_cost_us`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.errors import VerifierError
from repro.ebpf import opcodes as op
from repro.ebpf.helpers import ArgType, RetType, helper_by_id
from repro.ebpf.insn import Insn
from repro.ebpf.program import BpfProgram

#: Kernel-style complexity budget (1M state visits).
MAX_STATES = 1_000_000


class RegType(enum.IntEnum):
    """Register kinds.  An ``IntEnum`` so that hashing and comparing a
    register never leaves C (a plain ``Enum`` hashes in Python)."""

    UNINIT = 0
    SCALAR = 1
    PTR_CTX = 2
    PTR_STACK = 3
    CONST_PTR_MAP = 4
    PTR_MAP_VALUE = 5
    PTR_MAP_VALUE_OR_NULL = 6
    NULL = 7

    @property
    def label(self) -> str:
        """The kind as verifier messages spell it (``ptr_map_value``)."""
        return self.name.lower()


# The members by name: looking one up on the Enum class goes through the
# metaclass and costs more than the comparison it feeds.
(
    UNINIT,
    SCALAR,
    PTR_CTX,
    PTR_STACK,
    CONST_PTR_MAP,
    PTR_MAP_VALUE,
    PTR_MAP_VALUE_OR_NULL,
    NULL,
) = RegType


class Reg(NamedTuple):
    """Abstract state of one register."""

    type: RegType = UNINIT
    #: Byte offset for stack/map-value pointers.
    off: int = 0
    #: Map slot index for map pointers.
    map_slot: int = -1


# The kinds that carry no offset or slot are single shared objects, so
# comparing two states mostly compares identical registers.
_UNINIT_REG = Reg()
_SCALAR_REG = Reg(SCALAR)
_NULL_REG = Reg(NULL)

#: Bit 0 of ``_State.stack_init`` stands for the lowest stack byte.
_STACK_BIT0 = op.STACK_SIZE


class _State(NamedTuple):
    """Abstract machine state at one program point.

    A plain tuple of immutable parts: equality and hashing are the
    built-in tuple operations, and a step that changes nothing returns
    the state it was given.
    """

    regs: tuple[Reg, ...]
    #: Initialized stack bytes as a bitmask: byte ``b`` (negative, below
    #: R10) is bit ``b + STACK_SIZE``.
    stack_init: int
    #: Spilled registers: ((slot_off, Reg), ...) for 8-byte aligned
    #: slots, sorted by slot.
    spills: tuple[tuple[int, Reg], ...]

    def with_reg(self, index: int, reg: Reg) -> "_State":
        regs = self.regs
        if regs[index] == reg:
            return self
        return _State(
            regs[:index] + (reg,) + regs[index + 1 :], self.stack_init, self.spills
        )

    def stack_bytes_init(self, slot: int, size: int) -> bool:
        mask = ((1 << size) - 1) << (slot + _STACK_BIT0)
        return self.stack_init & mask == mask

    def first_uninit_byte(self, slot: int, size: int) -> int:
        return next(
            byte
            for byte in range(slot, slot + size)
            if not self.stack_init >> (byte + _STACK_BIT0) & 1
        )

    def spilled(self, slot: int) -> Optional[Reg]:
        for spill_slot, reg in self.spills:
            if spill_slot == slot:
                return reg
        return None


_ENTRY = _State(
    regs=(
        _UNINIT_REG,
        Reg(PTR_CTX),
        *[_UNINIT_REG] * 8,
        Reg(PTR_STACK),
    ),
    stack_init=0,
    spills=(),
)


@dataclass
class VerifierStats:
    """Outcome of a successful verification."""

    insn_count: int
    states_visited: int = 0
    peak_queue: int = 0
    helpers_called: tuple[str, ...] = ()

    @property
    def complexity(self) -> int:
        return self.states_visited


@dataclass(frozen=True)
class MapGeometry:
    """What the verifier needs to know about each referenced map."""

    key_size: int
    value_size: int


class _Verifier:
    def __init__(
        self,
        program: BpfProgram,
        maps: dict[int, MapGeometry],
        ctx_size: int,
    ):
        self.insns = program.insns
        self.maps = maps
        self.ctx_size = ctx_size
        self.stats = VerifierStats(insn_count=len(self.insns))
        self.helpers_used: set[str] = set()
        #: Per pc, a flag: some explored path executed the instruction.
        self._reached = bytearray(len(self.insns))
        #: Work stack of (pc, state) still to explore.
        self._todo: list[tuple[int, _State]] = []

    # -- entry -----------------------------------------------------------

    def run(self) -> VerifierStats:
        insns = self.insns
        if not insns:
            raise VerifierError("empty program")
        if len(insns) > op.MAX_INSNS:
            raise VerifierError(f"program too large: {len(insns)} insns")
        self._check_lddw_pairing()
        # Pruning memo, per pc: None (never reached), the one state seen
        # there, or -- from the second distinct state on -- a set.  Most
        # instructions are reached once, so most states are never
        # hashed; a path rejoining with an equal state is pruned by one
        # tuple comparison.
        seen: list = [None] * (len(insns) + 1)
        todo = self._todo
        todo.append((0, _ENTRY))
        step = self._step
        visited = peak = 0
        while todo:
            if len(todo) > peak:
                peak = len(todo)
            pc, state = todo.pop()
            prior = seen[pc]
            if prior is None:
                seen[pc] = state
            elif prior.__class__ is set:
                known = len(prior)
                prior.add(state)
                if len(prior) == known:
                    continue
            elif prior == state:
                continue
            else:
                seen[pc] = {prior, state}
            visited += 1
            if visited > MAX_STATES:
                raise VerifierError("BPF program is too large (state budget)")
            step(pc, state)
        self._check_unreachable()
        self.stats.states_visited = visited
        self.stats.peak_queue = peak
        self.stats.helpers_called = tuple(sorted(self.helpers_used))
        return self.stats

    def _check_lddw_pairing(self) -> None:
        second_half = False
        for insn in self.insns:
            if second_half:
                if insn.opcode != 0:
                    raise VerifierError("LDDW second half has nonzero opcode")
                second_half = False
            elif insn.opcode == op.LDDW:
                second_half = True
        if second_half:
            raise VerifierError("LDDW at end of program")

    def _check_unreachable(self) -> None:
        # An LDDW marks its second half when it is stepped, so the first
        # unmarked index is always an instruction of its own.
        index = self._reached.find(0)
        if index != -1:
            raise VerifierError(f"unreachable instruction at {index}")

    # -- single step ---------------------------------------------------

    def _step(self, pc: int, state: _State) -> None:
        """Interpret the instruction at ``pc``; push its successors."""
        if pc >= len(self.insns):
            raise VerifierError(f"jump out of range to {pc}")
        self._reached[pc] = 1
        insn = self.insns[pc]
        opcode = insn.opcode
        cls = opcode & op.CLASS_MASK
        if cls == op.BPF_ALU64 or cls == op.BPF_ALU:
            self._todo.append((pc + 1, self._do_alu(pc, insn, state, cls)))
        elif cls == op.BPF_LDX:
            self._todo.append((pc + 1, self._do_ldx(pc, insn, state)))
        elif cls == op.BPF_JMP or cls == op.BPF_JMP32:
            self._do_jmp(pc, insn, state)
        elif cls == op.BPF_ST or cls == op.BPF_STX:
            self._todo.append((pc + 1, self._do_store(pc, insn, state, cls)))
        elif opcode == op.LDDW:
            self._todo.append((pc + 2, self._do_lddw(pc, insn, state)))
        elif opcode == 0:
            raise VerifierError(f"jump into the middle of LDDW at {pc}")
        else:
            raise VerifierError(f"unsupported opcode {opcode:#04x} at {pc}")

    # -- ALU ---------------------------------------------------------------

    def _read_reg(self, state: _State, index: int, pc: int) -> Reg:
        reg = state.regs[index]
        if reg.type is UNINIT:
            raise VerifierError(f"R{index} !read_ok at insn {pc}")
        return reg

    def _do_alu(self, pc: int, insn: Insn, state: _State, cls: int) -> _State:
        opcode, dst_index, src_index, _off, imm = insn
        operation = opcode & op.OP_MASK
        if dst_index == op.R10:
            raise VerifierError(f"frame pointer is read-only (insn {pc})")
        use_reg = opcode & op.BPF_X

        if operation == op.BPF_MOV:
            if use_reg:
                src = self._read_reg(state, src_index, pc)
                if cls == op.BPF_ALU and src.type is not SCALAR:
                    # 32-bit mov truncates pointers into scalars.
                    src = _SCALAR_REG
                return state.with_reg(dst_index, src)
            return state.with_reg(dst_index, _SCALAR_REG)

        dst = self._read_reg(state, dst_index, pc)
        if operation == op.BPF_NEG:
            if dst.type is not SCALAR:
                raise VerifierError(f"NEG on pointer R{dst_index} at {pc}")
            return state

        if operation == op.BPF_END:
            if dst.type is not SCALAR:
                raise VerifierError(f"byte swap on pointer at {pc}")
            return state

        src_type = SCALAR
        if use_reg:
            src_type = self._read_reg(state, src_index, pc).type

        if operation in (op.BPF_DIV, op.BPF_MOD) and not use_reg and imm == 0:
            raise VerifierError(f"division by zero constant at {pc}")
        if operation in (op.BPF_LSH, op.BPF_RSH, op.BPF_ARSH) and not use_reg:
            width = 64 if cls == op.BPF_ALU64 else 32
            if not 0 <= imm < width:
                raise VerifierError(f"invalid shift {imm} at {pc}")

        # Pointer arithmetic: only +/- constant on stack/map-value ptrs.
        if dst.type in (PTR_STACK, PTR_MAP_VALUE):
            if cls != op.BPF_ALU64 or use_reg or operation not in (
                op.BPF_ADD,
                op.BPF_SUB,
            ):
                raise VerifierError(
                    f"invalid pointer arithmetic on R{dst_index} at {pc}"
                )
            delta = imm if operation == op.BPF_ADD else -imm
            return state.with_reg(dst_index, dst._replace(off=dst.off + delta))
        if dst.type is not SCALAR:
            raise VerifierError(
                f"arithmetic on {dst.type.label} pointer R{dst_index} at {pc}"
            )
        if src_type is not SCALAR:
            raise VerifierError(f"pointer used as scalar operand at {pc}")
        return state.with_reg(dst_index, _SCALAR_REG)

    # -- memory ------------------------------------------------------------

    def _check_stack_access(
        self, pc: int, reg: Reg, off: int, size: int
    ) -> int:
        slot = reg.off + off
        if slot >= 0 or slot < -op.STACK_SIZE or slot + size > 0:
            raise VerifierError(
                f"stack access [{slot}, {slot + size}) out of bounds at {pc}"
            )
        return slot

    def _do_lddw(self, pc: int, insn: Insn, state: _State) -> _State:
        if insn.src == op.PSEUDO_MAP_FD:
            if insn.imm not in self.maps:
                raise VerifierError(
                    f"LDDW references unknown map slot {insn.imm} at {pc}"
                )
            reg = Reg(CONST_PTR_MAP, map_slot=insn.imm)
        elif insn.src == 0:
            reg = _SCALAR_REG
        else:
            raise VerifierError(f"unsupported LDDW src {insn.src} at {pc}")
        self._reached[pc + 1] = 1
        return state.with_reg(insn.dst, reg)

    def _do_ldx(self, pc: int, insn: Insn, state: _State) -> _State:
        if (insn.opcode & op.MODE_MASK) != op.BPF_MEM:
            raise VerifierError(f"unsupported load mode at {pc}")
        size = op.SIZE_BYTES[insn.opcode & op.SIZE_MASK]
        base = self._read_reg(state, insn.src, pc)
        if base.type is PTR_CTX:
            addr = base.off + insn.off
            if addr < 0 or addr + size > self.ctx_size:
                raise VerifierError(
                    f"ctx access [{addr}, {addr + size}) out of bounds at {pc}"
                )
            return state.with_reg(insn.dst, _SCALAR_REG)
        if base.type is PTR_STACK:
            slot = self._check_stack_access(pc, base, insn.off, size)
            if size == 8 and slot % 8 == 0:
                spilled = state.spilled(slot)
                if spilled is not None:
                    return state.with_reg(insn.dst, spilled)
            if not state.stack_bytes_init(slot, size):
                raise VerifierError(
                    "read of uninitialized stack byte "
                    f"{state.first_uninit_byte(slot, size)} at {pc}"
                )
            return state.with_reg(insn.dst, _SCALAR_REG)
        if base.type is PTR_MAP_VALUE:
            geometry = self.maps[base.map_slot]
            addr = base.off + insn.off
            if addr < 0 or addr + size > geometry.value_size:
                raise VerifierError(
                    f"map value access [{addr}, {addr + size}) "
                    f"outside value_size={geometry.value_size} at {pc}"
                )
            return state.with_reg(insn.dst, _SCALAR_REG)
        if base.type is PTR_MAP_VALUE_OR_NULL:
            raise VerifierError(
                f"R{insn.src} possibly NULL, deref without check at {pc}"
            )
        raise VerifierError(
            f"load from non-pointer R{insn.src} ({base.type.label}) at {pc}"
        )

    def _do_store(self, pc: int, insn: Insn, state: _State, cls: int) -> _State:
        if (insn.opcode & op.MODE_MASK) != op.BPF_MEM:
            raise VerifierError(f"unsupported store mode at {pc}")
        size = op.SIZE_BYTES[insn.opcode & op.SIZE_MASK]
        base = self._read_reg(state, insn.dst, pc)
        if cls == op.BPF_STX:
            value = self._read_reg(state, insn.src, pc)
        else:
            value = _SCALAR_REG
        if base.type is PTR_STACK:
            slot = self._check_stack_access(pc, base, insn.off, size)
            # The write replaces whatever was spilled in its 8-byte slot.
            home = slot - slot % 8
            spills = tuple(s for s in state.spills if s[0] != home)
            if value.type is not SCALAR:
                if size != 8 or slot != home:
                    raise VerifierError(f"partial pointer spill at {pc}")
                spills = tuple(sorted(spills + ((slot, value),)))
            return _State(
                state.regs,
                state.stack_init | ((1 << size) - 1) << (slot + _STACK_BIT0),
                spills,
            )
        if base.type is PTR_MAP_VALUE:
            if value.type is not SCALAR:
                raise VerifierError(f"storing pointer into map value at {pc}")
            geometry = self.maps[base.map_slot]
            addr = base.off + insn.off
            if addr < 0 or addr + size > geometry.value_size:
                raise VerifierError(f"map value store out of bounds at {pc}")
            return state
        if base.type is PTR_CTX:
            raise VerifierError(f"ctx is read-only for this program type ({pc})")
        if base.type is PTR_MAP_VALUE_OR_NULL:
            raise VerifierError(f"store via possibly-NULL pointer at {pc}")
        raise VerifierError(f"store to non-pointer R{insn.dst} at {pc}")

    # -- control flow ----------------------------------------------------

    def _do_jmp(self, pc: int, insn: Insn, state: _State) -> None:
        operation = insn.opcode & op.OP_MASK
        if operation == op.BPF_EXIT:
            if state.regs[op.R0].type is UNINIT:
                raise VerifierError(f"R0 !read_ok at exit ({pc})")
            return
        if operation == op.BPF_CALL:
            self._todo.append((pc + 1, self._do_call(pc, insn, state)))
            return
        target = pc + 1 + insn.off
        self._check_forward(pc, target)
        if operation == op.BPF_JA:
            self._todo.append((target, state))
            return

        # Conditional jump.
        dst = self._read_reg(state, insn.dst, pc)
        use_reg = insn.opcode & op.BPF_X
        if use_reg:
            self._read_reg(state, insn.src, pc)

        taken, fallthrough = state, state
        null_check = (
            dst.type is PTR_MAP_VALUE_OR_NULL
            and not use_reg
            and insn.imm == 0
            and operation in (op.BPF_JEQ, op.BPF_JNE)
        )
        if null_check:
            as_value = state.with_reg(
                insn.dst, Reg(PTR_MAP_VALUE, map_slot=dst.map_slot)
            )
            as_null = state.with_reg(insn.dst, _NULL_REG)
            if operation == op.BPF_JEQ:
                taken, fallthrough = as_null, as_value
            else:
                taken, fallthrough = as_value, as_null
        elif dst.type not in (
            SCALAR,
            NULL,
            PTR_MAP_VALUE_OR_NULL,
        ):
            raise VerifierError(
                f"comparison on {dst.type.label} pointer R{insn.dst} at {pc}"
            )
        self._todo.append((target, taken))
        self._todo.append((pc + 1, fallthrough))

    def _check_forward(self, pc: int, target: int) -> None:
        if target <= pc:
            raise VerifierError(f"back-edge from insn {pc} to {target} (loop)")
        if target >= len(self.insns):
            raise VerifierError(f"jump out of range: {pc} -> {target}")

    def _do_call(self, pc: int, insn: Insn, state: _State) -> _State:
        helper = helper_by_id(insn.imm)
        if helper is None:
            raise VerifierError(f"unknown helper id {insn.imm} at {pc}")
        self.helpers_used.add(helper.name)
        key_size_hint: Optional[int] = None
        value_size_hint: Optional[int] = None
        for position, arg_type in enumerate(helper.args, start=1):
            reg = state.regs[position]
            if arg_type is ArgType.ANYTHING:
                continue
            if reg.type is UNINIT:
                raise VerifierError(
                    f"R{position} !read_ok for {helper.name} at {pc}"
                )
            if arg_type is ArgType.SCALAR:
                if reg.type is not SCALAR:
                    raise VerifierError(
                        f"{helper.name} arg{position} expects scalar at {pc}"
                    )
            elif arg_type is ArgType.CONST_MAP_PTR:
                if reg.type is not CONST_PTR_MAP:
                    raise VerifierError(
                        f"{helper.name} arg{position} expects map pointer at {pc}"
                    )
                geometry = self.maps[reg.map_slot]
                key_size_hint = geometry.key_size
                value_size_hint = geometry.value_size
            elif arg_type in (
                ArgType.MAP_KEY_PTR,
                ArgType.MAP_VALUE_PTR,
                ArgType.STACK_PTR,
            ):
                if reg.type is not PTR_STACK:
                    raise VerifierError(
                        f"{helper.name} arg{position} expects stack pointer at {pc}"
                    )
                need = 1
                if arg_type is ArgType.MAP_KEY_PTR and key_size_hint:
                    need = key_size_hint
                if arg_type is ArgType.MAP_VALUE_PTR and value_size_hint:
                    need = value_size_hint
                slot = self._check_stack_access(pc, reg, 0, need)
                if not state.stack_bytes_init(slot, need):
                    raise VerifierError(
                        f"{helper.name} reads uninitialized stack "
                        f"byte {state.first_uninit_byte(slot, need)} at {pc}"
                    )
        # Return value + caller-saved clobbers.
        if helper.ret is RetType.MAP_VALUE_OR_NULL:
            slot = next(
                (
                    reg.map_slot
                    for reg in state.regs[1:6]
                    if reg.type is CONST_PTR_MAP
                ),
                -1,
            )
            ret = Reg(PTR_MAP_VALUE_OR_NULL, map_slot=slot)
        elif helper.ret is RetType.SCALAR:
            ret = _SCALAR_REG
        else:
            ret = _UNINIT_REG
        return _State(
            (ret, *[_UNINIT_REG] * 5, *state.regs[6:]), state.stack_init, state.spills
        )


def verify(
    program: BpfProgram,
    maps: Optional[dict[int, MapGeometry]] = None,
    ctx_size: int = 256,
) -> VerifierStats:
    """Verify ``program``; returns stats or raises :class:`VerifierError`.

    ``maps`` describes the geometry of each map slot the program's
    ``ld_map_fd`` instructions reference; ``ctx_size`` is the readable
    context window for the program type (packet bytes for socket
    filters).
    """
    return _Verifier(program, maps or {}, ctx_size).run()

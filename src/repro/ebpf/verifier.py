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
#: The context pointer.  Arithmetic on it is rejected, so every copy of
#: it is this object, at offset 0.
_CTX_REG = Reg(PTR_CTX)

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
        _CTX_REG,
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


# -- what an opcode byte says on its own -------------------------------------

# Which rule steps an instruction.
(
    _ALU,
    _LDX,
    _STORE,
    _JMP,
    _LDDW,
    _LDDW_TAIL,
    _UNSUPPORTED,
    _OFF_END,  # no opcode: the slot after the last instruction
) = range(8)

# When a step is known, without running its rule, to leave the state as
# it is (``_Verifier.run`` says why).
(
    _NEVER,
    _SCALAR_DST,  # the destination is a scalar already
    _SCALAR_SHIFT,  # ... and the immediate is a shift count below the width
    _SCALAR_BOTH,  # ... and the source register is one too
    _CTX_LOAD,  # ... and the source is the context pointer, in bounds
) = range(5)

_SHIFTS = (op.BPF_LSH, op.BPF_RSH, op.BPF_ARSH)
_DIVISIONS = (op.BPF_DIV, op.BPF_MOD)
_ARITHMETIC = _SHIFTS + _DIVISIONS + (
    op.BPF_ADD, op.BPF_SUB, op.BPF_MUL, op.BPF_OR, op.BPF_AND, op.BPF_XOR,
    op.BPF_NEG, op.BPF_MOV, op.BPF_END,
)


class _Facts(NamedTuple):
    """What an opcode byte says, whatever the rest of the instruction
    holds."""

    rule: int
    skip: int = _NEVER
    #: ALU and jumps: the operation, and whether its operand is a
    #: register.  Stores: whether the value stored is one.
    operation: int = 0
    use_reg: bool = False
    #: ALU: operand width in bits.
    bits: int = 0
    #: Loads and stores: bytes accessed, and whether the mode is the
    #: one supported (``BPF_MEM``).
    size: int = 0
    mem: bool = False


def _facts(opcode: int) -> _Facts:
    cls = opcode & op.CLASS_MASK
    operation = opcode & op.OP_MASK
    use_reg = bool(opcode & op.BPF_X)
    if cls == op.BPF_ALU64 or cls == op.BPF_ALU:
        if operation not in _ARITHMETIC:
            skip = _NEVER
        elif use_reg:
            skip = _SCALAR_BOTH
        elif operation in _SHIFTS:
            skip = _SCALAR_SHIFT
        elif operation in _DIVISIONS:
            skip = _NEVER
        else:
            skip = _SCALAR_DST
        bits = 64 if cls == op.BPF_ALU64 else 32
        return _Facts(_ALU, skip, operation, use_reg, bits)
    if cls == op.BPF_JMP or cls == op.BPF_JMP32:
        # Call, exit and ja exist in the 64-bit class only: the JIT
        # gives no other encoding of a call its relocation.
        if cls == op.BPF_JMP32 and operation in (op.BPF_CALL, op.BPF_EXIT, op.BPF_JA):
            return _Facts(_UNSUPPORTED)
        return _Facts(_JMP, _NEVER, operation, use_reg)
    if cls == op.BPF_LD:
        if opcode == op.LDDW:
            return _Facts(_LDDW)
        return _Facts(_UNSUPPORTED if opcode else _LDDW_TAIL)
    size = op.SIZE_BYTES[opcode & op.SIZE_MASK]
    mem = opcode & op.MODE_MASK == op.BPF_MEM
    if cls == op.BPF_LDX:
        return _Facts(_LDX, _CTX_LOAD if mem else _NEVER, size=size, mem=mem)
    return _Facts(_STORE, use_reg=cls == op.BPF_STX, size=size, mem=mem)


_FACTS = tuple(_facts(opcode) for opcode in range(256))
# The two facts the walk itself reads, as ``bytes.translate`` tables, and
# the bound that goes with a skip: the shift width or the load size.
_RULE = bytes(facts.rule for facts in _FACTS)
_SKIP = bytes(facts.skip for facts in _FACTS)
_SPAN = bytes(facts.bits or facts.size for facts in _FACTS)


class _Verifier:
    def __init__(
        self,
        program: BpfProgram,
        maps: dict[int, MapGeometry],
        ctx_size: int,
    ):
        self.insns = program.insns
        #: The opcode of every instruction, as one column of the image.
        self.opcodes = program.image()[0::8]
        self.maps = maps
        self.ctx_size = ctx_size
        self.stats = VerifierStats(insn_count=len(self.insns))
        self.helpers_used: set[str] = set()

    # -- entry -----------------------------------------------------------

    def run(self) -> VerifierStats:
        """Explore every path, depth first.

        The pair in hand is followed instruction by instruction; only a
        branch's *other* successor waits on the work stack.  The stack
        is last-in first-out and takes the successors in the order the
        rule returns them, the last being the one followed -- so a
        conditional's fall-through runs to its end before its taken arm
        starts, and the latest branch's taken arm before an earlier
        one's.  ``peak_queue`` counts the pair in hand with the stack.

        Most steps change nothing: arithmetic on scalars gives a scalar,
        a load through the context pointer gives one too.  All scalars
        are one object, ``_SCALAR_REG``, and all copies of the context
        pointer another, so "this step's rule would return the state it
        was given" is a few identity tests on the operands, plus the one
        bound the rule would check (``_SKIP`` says which, per opcode).
        Such a step is counted, memoized and walked past without running
        the rule.  Whatever fails a test -- a pointer or unwritten
        operand, the frame pointer as destination (never a scalar), an
        immediate out of bounds -- goes to its ``_do_*`` rule like every
        other instruction, and that is where each message is raised.
        """
        insns = self.insns
        count = len(insns)
        if not count:
            raise VerifierError("empty program")
        if count > op.MAX_INSNS:
            raise VerifierError(f"program too large: {count} insns")
        self._check_lddw_pairing()
        rules = self.opcodes.translate(_RULE) + bytes([_OFF_END])
        skips = self.opcodes.translate(_SKIP) + bytes([_NEVER])
        spans = self.opcodes.translate(_SPAN)
        ctx_size = self.ctx_size
        scalar, ctx = _SCALAR_REG, _CTX_REG
        # Pruning memo, per pc: None (never reached), the one state seen
        # there, or -- from the second distinct state on -- a set.  Most
        # instructions are reached once, so most states are never
        # hashed; a path rejoining with an equal state is pruned by one
        # tuple comparison.
        seen: list = [None] * (count + 1)
        stack = [(0, _ENTRY)]
        visited = peak = 0
        while stack:
            if len(stack) > peak:
                peak = len(stack)
            pc, state = stack.pop()
            regs = state.regs
            while True:
                prior = seen[pc]
                if prior is None:
                    seen[pc] = state
                elif prior.__class__ is set:
                    known = len(prior)
                    prior.add(state)
                    if len(prior) == known:
                        break
                elif prior == state:
                    break
                else:
                    seen[pc] = {prior, state}
                visited += 1
                if visited > MAX_STATES:
                    raise VerifierError("BPF program is too large (state budget)")

                skip = skips[pc]
                if skip:
                    _opcode, dst, src, off, imm = insns[pc]
                    if regs[dst] is scalar:
                        if skip == _SCALAR_DST:
                            unchanged = True
                        elif skip == _SCALAR_BOTH:
                            unchanged = regs[src] is scalar
                        elif skip == _SCALAR_SHIFT:
                            unchanged = 0 <= imm < spans[pc]
                        else:
                            unchanged = (
                                regs[src] is ctx
                                and 0 <= off <= ctx_size - spans[pc]
                            )
                        if unchanged:
                            pc += 1
                            continue
                rule = rules[pc]
                if rule == _OFF_END:
                    raise VerifierError(f"jump out of range to {pc}")
                insn = insns[pc]
                if rule == _ALU:
                    state = self._do_alu(pc, insn, state)
                    pc += 1
                elif rule == _LDX:
                    state = self._do_ldx(pc, insn, state)
                    pc += 1
                elif rule == _JMP:
                    successors = self._do_jmp(pc, insn, state)
                    if not successors:
                        break
                    pc, state = successors.pop()
                    if successors:
                        stack += successors
                        if len(stack) >= peak:
                            peak = len(stack) + 1
                elif rule == _STORE:
                    state = self._do_store(pc, insn, state)
                    pc += 1
                elif rule == _LDDW:
                    state = self._do_lddw(pc, insn, state)
                    pc += 2
                elif rule == _LDDW_TAIL:
                    raise VerifierError(f"jump into the middle of LDDW at {pc}")
                else:
                    raise VerifierError(
                        f"unsupported opcode {insn.opcode:#04x} at {pc}"
                    )
                regs = state.regs
        self._check_unreachable(seen)
        self.stats.states_visited = visited
        self.stats.peak_queue = peak
        self.stats.helpers_called = tuple(sorted(self.helpers_used))
        return self.stats

    def _check_lddw_pairing(self) -> None:
        opcodes = self.opcodes
        head = opcodes.find(op.LDDW)
        while head >= 0:
            tail = head + 1
            if tail == len(opcodes):
                raise VerifierError("LDDW at end of program")
            if opcodes[tail]:
                raise VerifierError("LDDW second half has nonzero opcode")
            head = opcodes.find(op.LDDW, tail + 1)

    def _check_unreachable(self, seen: list) -> None:
        # An instruction no path arrived at has no entry in the pruning
        # memo.  Nor has the second half of an LDDW, which is stepped
        # over with its first.
        opcodes = self.opcodes
        index = -1
        while True:
            try:
                index = seen.index(None, index + 1, len(opcodes))
            except ValueError:
                return
            if index == 0 or opcodes[index - 1] != op.LDDW:
                raise VerifierError(f"unreachable instruction at {index}")

    # -- ALU ---------------------------------------------------------------

    def _read_reg(self, state: _State, index: int, pc: int) -> Reg:
        reg = state.regs[index]
        if reg.type is UNINIT:
            raise VerifierError(f"R{index} !read_ok at insn {pc}")
        return reg

    def _check_writable(self, index: int, pc: int) -> None:
        if index == op.R10:
            raise VerifierError(f"frame pointer is read-only (insn {pc})")

    def _do_alu(self, pc: int, insn: Insn, state: _State) -> _State:
        opcode, dst_index, src_index, _off, imm = insn
        facts = _FACTS[opcode]
        operation, use_reg = facts.operation, facts.use_reg
        self._check_writable(dst_index, pc)

        if operation == op.BPF_MOV:
            if use_reg:
                src = self._read_reg(state, src_index, pc)
                if facts.bits == 32 and src.type is not SCALAR:
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

        if operation in _DIVISIONS and not use_reg and imm == 0:
            raise VerifierError(f"division by zero constant at {pc}")
        if operation in _SHIFTS and not use_reg and not 0 <= imm < facts.bits:
            raise VerifierError(f"invalid shift {imm} at {pc}")

        # Pointer arithmetic: only +/- constant on stack/map-value ptrs.
        if dst.type in (PTR_STACK, PTR_MAP_VALUE):
            if facts.bits != 64 or use_reg or operation not in (
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
        self._check_writable(insn.dst, pc)
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
        return state.with_reg(insn.dst, reg)

    def _do_ldx(self, pc: int, insn: Insn, state: _State) -> _State:
        facts = _FACTS[insn.opcode]
        if not facts.mem:
            raise VerifierError(f"unsupported load mode at {pc}")
        self._check_writable(insn.dst, pc)
        size = facts.size
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

    def _do_store(self, pc: int, insn: Insn, state: _State) -> _State:
        facts = _FACTS[insn.opcode]
        if not facts.mem:
            raise VerifierError(f"unsupported store mode at {pc}")
        size = facts.size
        base = self._read_reg(state, insn.dst, pc)
        if facts.use_reg:
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

    def _do_jmp(
        self, pc: int, insn: Insn, state: _State
    ) -> list[tuple[int, _State]]:
        """The ``(pc, state)`` pairs that follow, in work-stack order:
        the last is explored first, and none means the path has ended."""
        facts = _FACTS[insn.opcode]
        operation, use_reg = facts.operation, facts.use_reg
        if operation == op.BPF_EXIT:
            if state.regs[op.R0].type is UNINIT:
                raise VerifierError(f"R0 !read_ok at exit ({pc})")
            return []
        if operation == op.BPF_CALL:
            return [(pc + 1, self._do_call(pc, insn, state))]
        target = pc + 1 + insn.off
        self._check_forward(pc, target)
        if operation == op.BPF_JA:
            return [(target, state)]

        # Conditional jump.
        dst = self._read_reg(state, insn.dst, pc)
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
        return [(target, taken), (pc + 1, fallthrough)]

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

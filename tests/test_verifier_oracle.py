"""Verifier equivalence oracle.

The verifier's state representation is an implementation detail; what
it explores is not.  These tables were taken from the dataclass-based
verifier of PR 12 (commit ece2f30) and pin, per program, the exact
``(states_visited, peak_queue, helpers_called)`` and, per bad program,
the exact rejection message.  ``states_visited`` feeds the simulated
verify cost, so a pruning change is a change to sim-clock numbers.

``STEP_STATS``, ``CTX_BOUNDS`` and ``STEP_MESSAGES`` were added for the
fused walk of PR 18 and taken from its parent (commit 41e6472, regenerate with
``PYTHONPATH=src python tests/test_verifier_oracle.py``): operands that
must take the general rule, immediates on either side of their bound,
and programs with two defects where the order of exploration decides
which one is reported.
"""

import pytest

from repro.errors import VerifierError
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.insn import Insn
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program
from repro.ebpf.verifier import MapGeometry, verify

GEO = {0: MapGeometry(key_size=4, value_size=8)}
LOOKUP = "bpf_map_lookup_elem"

# (size, seed, with_map) -> (states_visited, peak_queue, helpers_called)
STRESS_STATS = {
    (64, 1, 0): (64, 2, ()),
    (64, 1, 1): (63, 3, (LOOKUP,)),
    (64, 2, 0): (64, 2, ()),
    (64, 2, 1): (63, 3, (LOOKUP,)),
    (64, 3, 0): (64, 2, ()),
    (64, 3, 1): (63, 3, (LOOKUP,)),
    (300, 1, 0): (300, 8, ()),
    (300, 1, 1): (299, 9, (LOOKUP,)),
    (300, 2, 0): (300, 8, ()),
    (300, 2, 1): (299, 9, (LOOKUP,)),
    (300, 3, 0): (300, 8, ()),
    (300, 3, 1): (299, 9, (LOOKUP,)),
    (818, 1, 0): (818, 20, ()),
    (818, 1, 1): (817, 21, (LOOKUP,)),
    (818, 2, 0): (818, 20, ()),
    (818, 2, 1): (817, 21, (LOOKUP,)),
    (818, 3, 0): (818, 20, ()),
    (818, 3, 1): (817, 21, (LOOKUP,)),
    (1300, 1, 0): (1300, 32, ()),
    (1300, 1, 1): (1299, 33, (LOOKUP,)),
    (1300, 2, 0): (1300, 32, ()),
    (1300, 2, 1): (1299, 33, (LOOKUP,)),
    (1300, 3, 0): (1300, 32, ()),
    (1300, 3, 1): (1299, 33, (LOOKUP,)),
}


def _diamond(asm: Asm, index: int, then, otherwise) -> None:
    """``if ctx[index] > 127: otherwise() else: then()``, arms rejoining."""
    asm.ldx_b(op.R8, op.R6, index)
    asm.jmp_imm(op.BPF_JGT, op.R8, 127, f"else{index}")
    then(asm)
    asm.ja(f"join{index}")
    asm.label(f"else{index}")
    otherwise(asm)
    asm.label(f"join{index}")


def _prologue() -> Asm:
    return Asm().mov_reg(op.R6, op.R1).mov_imm(op.R7, 0).mov_imm(op.R0, 0)


def join_equal() -> Asm:
    """Eight diamonds whose arms leave equal states: every join prunes."""
    asm = _prologue()
    for index in range(8):
        _diamond(
            asm, index,
            lambda a: a.alu64_imm(op.BPF_ADD, op.R7, 3),
            lambda a: a.alu64_imm(op.BPF_XOR, op.R7, 0x55),
        )
    return asm.mov_reg(op.R0, op.R7).exit_()


def join_dead() -> Asm:
    """Five diamonds; one arm initialises a register nothing reads.

    The states differ at each join, so nothing prunes and the paths
    double -- until a later diamond overwrites the register in both arms.
    """
    asm = _prologue()
    for index in range(5):
        _diamond(
            asm, index,
            lambda a, r=op.R2 + index % 3: a.mov_imm(r, 1),
            lambda a: a.alu64_imm(op.BPF_ADD, op.R7, 1),
        )
    _diamond(
        asm, 5,
        lambda a: a.mov_imm(op.R2, 0).mov_imm(op.R3, 0).mov_imm(op.R4, 0),
        lambda a: a.mov_imm(op.R2, 1).mov_imm(op.R3, 1).mov_imm(op.R4, 1),
    )
    return asm.mov_reg(op.R0, op.R7).exit_()


def join_live() -> Asm:
    """Arms differ in a live stack pointer, stack bytes and a spill."""
    asm = _prologue()
    asm.stx_dw(op.R10, op.R7, -16)
    for index in range(4):
        _diamond(
            asm, index,
            lambda a: a.mov_reg(op.R4, op.R10).alu64_imm(op.BPF_ADD, op.R4, -8),
            lambda a: a.mov_reg(op.R4, op.R10).alu64_imm(op.BPF_ADD, op.R4, -16),
        )
        asm.stx(op.BPF_W, op.R4, op.R7, 0)  # inits -8..-5 or -16..-13
        _diamond(
            asm, 10 + index,
            lambda a: a.stx_dw(op.R10, op.R6, -24),  # spill the ctx pointer
            lambda a: a.stx_dw(op.R10, op.R7, -24),  # or a scalar
        )
    asm.ldx_dw(op.R3, op.R10, -16)
    return asm.mov_reg(op.R0, op.R7).exit_()


def join_map() -> Asm:
    """Two null-checked lookups with a diamond between them."""
    asm = _prologue()
    asm.stx(op.BPF_W, op.R10, op.R7, -4)
    for index in range(2):
        asm.mov_reg(op.R2, op.R10).alu64_imm(op.BPF_ADD, op.R2, -4)
        asm.ld_map_fd(op.R1, 0).call(1)
        asm.jmp_imm(op.BPF_JEQ, op.R0, 0, f"null{index}")
        asm.ldx_w(op.R8, op.R0, 4).alu64_reg(op.BPF_ADD, op.R7, op.R8)
        asm.label(f"null{index}")
        _diamond(
            asm, index,
            lambda a: a.mov_imm(op.R9, 1),
            lambda a: a.call(7).mov_reg(op.R9, op.R0),
        )
    return asm.mov_reg(op.R0, op.R9).exit_()


# name -> (builder, uses the map, (states_visited, peak_queue, helpers))
JOIN_STATS = {
    "join_equal": (join_equal, False, (45, 9, ())),
    "join_dead": (join_dead, False, (157, 7, ())),
    "join_live": (join_live, False, (246, 9, ())),
    "join_map": (
        join_map, True, (52, 5, ("bpf_get_prandom_u32", LOOKUP)),
    ),
}


def _lookup(asm: Asm) -> Asm:
    """Key 0 on the stack, then ``r0 = map_lookup(map0, &key)``."""
    return (
        asm.mov_imm(op.R8, 0)
        .stx(op.BPF_W, op.R10, op.R8, -4)
        .mov_reg(op.R2, op.R10)
        .alu64_imm(op.BPF_ADD, op.R2, -4)
        .ld_map_fd(op.R1, 0)
        .call(1)
    )


def _checked_lookup() -> Asm:
    return _lookup(Asm()).jmp_imm(op.BPF_JEQ, op.R0, 0, "out")


def _end(asm: Asm) -> Asm:
    return asm.mov_imm(op.R0, 0).exit_()


def _backward_jump() -> Asm:
    asm = Asm().label("top").mov_imm(op.R0, 0)
    asm._fixups.append((len(asm._insns), "top"))
    return asm.raw(Insn(op.BPF_JMP | op.BPF_JA)).exit_()


def _into_lddw() -> Asm:
    asm = Asm().ja("mid").lddw(op.R0, 5)
    asm._labels["mid"] = 2
    return asm.exit_()


# name -> (program source, uses the map, exact message)
REJECTIONS = {
    "uninit_src": (
        Asm().mov_reg(op.R0, op.R5).exit_(), False,
        "R5 !read_ok at insn 0",
    ),
    "exit_without_r0": (
        Asm().mov_imm(op.R1, 0).exit_(), False,
        "R0 !read_ok at exit (1)",
    ),
    "fallthrough_off_end": (
        Asm().mov_imm(op.R0, 0), False,
        "jump out of range to 1",
    ),
    "backward_jump": (
        _backward_jump(), False,
        "back-edge from insn 1 to 0 (loop)",
    ),
    "jump_past_end": (
        Asm().mov_imm(op.R0, 0).raw(Insn(op.BPF_JMP | op.BPF_JA, off=5)).exit_(),
        False,
        "jump out of range: 1 -> 7",
    ),
    "write_frame_pointer": (
        Asm().mov_imm(op.R10, 0).exit_(), False,
        "frame pointer is read-only (insn 0)",
    ),
    "stack_low": (
        _end(Asm().mov_imm(op.R2, 1).stx_dw(op.R10, op.R2, -520)), False,
        "stack access [-520, -512) out of bounds at 1",
    ),
    "stack_positive": (
        _end(Asm().mov_imm(op.R2, 1).stx_dw(op.R10, op.R2, 8)), False,
        "stack access [8, 16) out of bounds at 1",
    ),
    "uninit_stack_read": (
        Asm().ldx_dw(op.R0, op.R10, -8).exit_(), False,
        "read of uninitialized stack byte -8 at 0",
    ),
    "half_init_stack_read": (
        Asm().mov_imm(op.R2, 1).stx(op.BPF_W, op.R10, op.R2, -8)
        .ldx_dw(op.R0, op.R10, -8).exit_(),
        False,
        "read of uninitialized stack byte -4 at 2",
    ),
    "ctx_out_of_bounds": (
        Asm().ldx_w(op.R0, op.R1, 254).exit_(), False,
        "ctx access [254, 258) out of bounds at 0",
    ),
    "ctx_store": (
        _end(Asm().mov_imm(op.R2, 0).stx(op.BPF_W, op.R1, op.R2, 0)), False,
        "ctx is read-only for this program type (1)",
    ),
    "div_by_zero": (
        Asm().mov_imm(op.R0, 10).alu64_imm(op.BPF_DIV, op.R0, 0).exit_(), False,
        "division by zero constant at 1",
    ),
    "oversized_shift": (
        Asm().mov_imm(op.R0, 1).alu64_imm(op.BPF_LSH, op.R0, 64).exit_(), False,
        "invalid shift 64 at 1",
    ),
    "oversized_shift32": (
        Asm().mov_imm(op.R0, 1).alu32_imm(op.BPF_RSH, op.R0, 32).exit_(), False,
        "invalid shift 32 at 1",
    ),
    "ctx_pointer_mul": (
        _end(Asm().alu64_imm(op.BPF_MUL, op.R1, 2)), False,
        "arithmetic on ptr_ctx pointer R1 at 0",
    ),
    "stack_pointer_mul": (
        _end(Asm().mov_reg(op.R2, op.R10).alu64_imm(op.BPF_MUL, op.R2, 2)), False,
        "invalid pointer arithmetic on R2 at 1",
    ),
    "pointer_as_operand": (
        Asm().mov_imm(op.R0, 0).alu64_reg(op.BPF_ADD, op.R0, op.R1).exit_(), False,
        "pointer used as scalar operand at 1",
    ),
    "neg_on_pointer": (
        _end(Asm().neg(op.R1)), False,
        "NEG on pointer R1 at 0",
    ),
    "load_from_scalar": (
        Asm().mov_imm(op.R2, 0).ldx_b(op.R0, op.R2, 0).exit_(), False,
        "load from non-pointer R2 (scalar) at 1",
    ),
    "store_to_scalar": (
        _end(Asm().mov_imm(op.R2, 0).stx(op.BPF_W, op.R2, op.R2, 0)), False,
        "store to non-pointer R2 at 1",
    ),
    "partial_pointer_spill": (
        _end(Asm().stx(op.BPF_W, op.R10, op.R1, -8)), False,
        "partial pointer spill at 0",
    ),
    "compare_ctx_pointer": (
        _end(Asm().jmp_imm(op.BPF_JEQ, op.R1, 0, "x").label("x")), False,
        "comparison on ptr_ctx pointer R1 at 0",
    ),
    "deref_without_null_check": (
        _end(_lookup(Asm()).ldx_w(op.R3, op.R0, 0)), True,
        "R0 possibly NULL, deref without check at 7",
    ),
    "store_without_null_check": (
        _end(_lookup(Asm()).stx(op.BPF_W, op.R0, op.R8, 0)), True,
        "store via possibly-NULL pointer at 7",
    ),
    "map_value_out_of_bounds": (
        _end(_checked_lookup().ldx_dw(op.R3, op.R0, 4).label("out")), True,
        "map value access [4, 12) outside value_size=8 at 8",
    ),
    "map_value_store_out_of_bounds": (
        _end(_checked_lookup().stx_dw(op.R0, op.R8, 4).label("out")), True,
        "map value store out of bounds at 8",
    ),
    "pointer_into_map_value": (
        _end(_checked_lookup().stx_dw(op.R0, op.R10, 0).label("out")), True,
        "storing pointer into map value at 8",
    ),
    "unknown_helper": (
        Asm().call(999).exit_(), False,
        "unknown helper id 999 at 0",
    ),
    "helper_wants_map_pointer": (
        Asm().mov_imm(op.R1, 0).mov_imm(op.R8, 0)
        .stx(op.BPF_W, op.R10, op.R8, -4).mov_reg(op.R2, op.R10)
        .alu64_imm(op.BPF_ADD, op.R2, -4).call(1).exit_(),
        True,
        "bpf_map_lookup_elem arg1 expects map pointer at 5",
    ),
    "helper_wants_stack_pointer": (
        _end(Asm().mov_imm(op.R2, 0).ld_map_fd(op.R1, 0).call(1)), True,
        "bpf_map_lookup_elem arg2 expects stack pointer at 3",
    ),
    "helper_wants_scalar": (
        _end(Asm().mov_imm(op.R8, 0).stx(op.BPF_W, op.R10, op.R8, -4)
             .mov_reg(op.R1, op.R10).alu64_imm(op.BPF_ADD, op.R1, -4)
             .mov_reg(op.R2, op.R10).call(6)),
        False,
        "bpf_trace_printk arg2 expects scalar at 5",
    ),
    "helper_uninit_arg": (
        _end(Asm().ld_map_fd(op.R1, 0).call(1)), True,
        "R2 !read_ok for bpf_map_lookup_elem at 2",
    ),
    "helper_uninit_key": (
        _end(Asm().mov_reg(op.R2, op.R10).alu64_imm(op.BPF_ADD, op.R2, -4)
             .ld_map_fd(op.R1, 0).call(1)),
        True,
        "bpf_map_lookup_elem reads uninitialized stack byte -4 at 4",
    ),
    "clobbered_by_call": (
        _lookup(Asm().mov_imm(op.R3, 5)).mov_reg(op.R0, op.R3).exit_(), True,
        "R3 !read_ok at insn 8",
    ),
    "unknown_map_slot": (
        _end(Asm().ld_map_fd(op.R1, 7)), False,
        "LDDW references unknown map slot 7 at 0",
    ),
    "lddw_bad_src": (
        _end(Asm().raw(Insn(op.LDDW, dst=0, src=2, imm=0)).raw(Insn(0))), False,
        "unsupported LDDW src 2 at 0",
    ),
    "unreachable": (
        Asm().mov_imm(op.R0, 0).exit_().mov_imm(op.R0, 1).exit_(), False,
        "unreachable instruction at 2",
    ),
    "lddw_at_end": (
        Asm().mov_imm(op.R0, 0).raw(Insn(op.LDDW, dst=0, imm=0)), False,
        "LDDW at end of program",
    ),
    "lddw_second_half": (
        Asm().raw(Insn(op.LDDW, dst=0, imm=0)).exit_(), False,
        "LDDW second half has nonzero opcode",
    ),
    "jump_into_lddw": (
        _into_lddw(), False,
        "jump into the middle of LDDW at 2",
    ),
    "unsupported_opcode": (
        _end(Asm().raw(Insn(op.BPF_LD | op.BPF_ABS | op.BPF_W))), False,
        "unsupported opcode 0x20 at 0",
    ),
    "unsupported_load_mode": (
        _end(Asm().raw(Insn(op.BPF_LDX | op.BPF_ABS | op.BPF_W, dst=0, src=1))),
        False,
        "unsupported load mode at 0",
    ),
    "unsupported_store_mode": (
        _end(Asm().raw(Insn(op.BPF_STX | op.BPF_ABS | op.BPF_W, dst=10, src=1))),
        False,
        "unsupported store mode at 0",
    ),
}



# -- the fused walk: what a skipped step could get wrong ----------------------

def _alu32_reg(alu_op: int, dst: int, src: int) -> Insn:
    return Insn(op.BPF_ALU | alu_op | op.BPF_X, dst=dst, src=src)


def _branch(asm: Asm, label: str) -> Asm:
    """``if ctx[0] > 127 goto label``, with r0 readable on both arms."""
    return asm.mov_imm(op.R0, 0).ldx_b(op.R8, op.R1, 0).jmp_imm(
        op.BPF_JGT, op.R8, 127, label
    )


def _nested_arms() -> Asm:
    """Four conditionals in a row, every taken arm left pending while
    the fall-through runs on: the deepest the work stack gets."""
    asm = Asm().mov_imm(op.R0, 0).ldx_b(op.R8, op.R1, 0)
    for depth in range(4):
        asm.jmp_imm(op.BPF_JGT, op.R8, 10 * depth, f"arm{depth}")
    asm.exit_()
    for depth in range(4):
        asm.label(f"arm{depth}").mov_imm(op.R2 + depth, depth).exit_()
    return asm


# name -> (program source, uses the map, (states_visited, peak_queue, helpers))
STEP_PROGRAMS = {
    "stack_pointer_add": (
        Asm().mov_reg(op.R2, op.R10).alu64_imm(op.BPF_ADD, op.R2, -8)
        .mov_imm(op.R7, 0).stx_dw(op.R2, op.R7, 0).ldx_dw(op.R0, op.R10, -8).exit_(),
        False,
    ),
    "stack_pointer_sub": (
        Asm().mov_reg(op.R2, op.R10).alu64_imm(op.BPF_SUB, op.R2, 16)
        .mov_imm(op.R7, 0).stx_dw(op.R2, op.R7, 8).ldx_dw(op.R0, op.R10, -8).exit_(),
        False,
    ),
    "alu32_mov_of_pointer_is_a_scalar": (
        Asm().raw(_alu32_reg(op.BPF_MOV, op.R2, op.R1))
        .alu64_imm(op.BPF_MUL, op.R2, 3).mov_reg(op.R0, op.R2).exit_(),
        False,
    ),
    "mov_imm_over_a_pointer": (
        Asm().mov_imm(op.R1, 5).alu64_imm(op.BPF_MUL, op.R1, 3)
        .mov_reg(op.R0, op.R1).exit_(),
        False,
    ),
    "shifts_just_in_range": (
        Asm().mov_imm(op.R0, 1).alu64_imm(op.BPF_LSH, op.R0, 63)
        .alu64_imm(op.BPF_RSH, op.R0, 0).alu64_imm(op.BPF_ARSH, op.R0, 63)
        .alu64_imm(op.BPF_LSH, op.R0, 32).alu32_imm(op.BPF_LSH, op.R0, 31)
        .alu32_imm(op.BPF_ARSH, op.R0, 31).alu32_imm(op.BPF_RSH, op.R0, 0).exit_(),
        False,
    ),
    "nonzero_divisors": (
        Asm().mov_imm(op.R0, 7).alu64_imm(op.BPF_DIV, op.R0, 1)
        .alu64_imm(op.BPF_MOD, op.R0, -1).alu32_imm(op.BPF_DIV, op.R0, 3)
        .alu32_imm(op.BPF_MOD, op.R0, 2**31 - 1).exit_(),
        False,
    ),
    "register_divisors_and_shift_counts": (
        Asm().mov_imm(op.R0, 7).mov_imm(op.R2, 0).alu64_reg(op.BPF_DIV, op.R0, op.R2)
        .alu64_reg(op.BPF_MOD, op.R0, op.R2).alu64_reg(op.BPF_LSH, op.R0, op.R2)
        .alu64_reg(op.BPF_ARSH, op.R0, op.R0).raw(_alu32_reg(op.BPF_RSH, op.R0, op.R2))
        .exit_(),
        False,
    ),
    "neg_and_byte_swap": (
        Asm().mov_imm(op.R0, 7).neg(op.R0)
        .raw(Insn(op.BPF_ALU | op.BPF_NEG | op.BPF_X, dst=op.R0, src=op.R5))
        .raw(Insn(op.BPF_ALU | op.BPF_END, dst=op.R0, imm=16))
        .raw(Insn(op.BPF_ALU64 | op.BPF_END | op.BPF_X, dst=op.R0, src=op.R5, imm=64))
        .exit_(),
        False,
    ),
    "ctx_load_through_a_copy": (
        Asm().mov_reg(op.R6, op.R1).ldx_b(op.R0, op.R6, 255)
        .ldx_dw(op.R0, op.R6, 248).exit_(),
        False,
    ),
    "ctx_load_over_a_pointer": (
        Asm().mov_reg(op.R2, op.R10).ldx_b(op.R2, op.R1, 0)
        .alu64_reg(op.BPF_ADD, op.R2, op.R2).mov_reg(op.R0, op.R2).exit_(),
        False,
    ),
    "ctx_load_into_an_unwritten_register": (
        Asm().ldx_b(op.R3, op.R1, 0).mov_reg(op.R0, op.R3).exit_(), False,
    ),
    "map_value_pointer_add": (
        _end(_checked_lookup().alu64_imm(op.BPF_ADD, op.R0, 4)
             .ldx_w(op.R3, op.R0, 0).label("out")),
        True,
    ),
    "reserved_alu_op_steps_as_arithmetic": (
        Asm().mov_imm(op.R0, 7).raw(Insn(op.BPF_ALU64 | 0xE0, dst=op.R0, imm=1))
        .raw(Insn(op.BPF_ALU | 0xF0 | op.BPF_X, dst=op.R0, src=op.R0)).exit_(),
        False,
    ),
    "reserved_jump_op_steps_as_conditional": (
        Asm().mov_imm(op.R0, 7).raw(Insn(op.BPF_JMP | 0xE0, dst=op.R0, off=1))
        .mov_imm(op.R0, 1).exit_(),
        False,
    ),
    "call_and_exit_with_the_source_bit": (
        Asm().raw(Insn(op.BPF_JMP | op.BPF_CALL | op.BPF_X, imm=5))
        .raw(Insn(op.BPF_JMP | op.BPF_JA | op.BPF_X, off=0))
        .raw(Insn(op.BPF_JMP | op.BPF_EXIT | op.BPF_X)),
        False,
    ),
    "taken_arm_starts_with_arithmetic": (
        _branch(Asm(), "arm").alu64_imm(op.BPF_ADD, op.R0, 1).exit_()
        .label("arm").alu64_imm(op.BPF_XOR, op.R0, 5).alu64_reg(op.BPF_ADD, op.R0, op.R8)
        .exit_(),
        False,
    ),
    "nested_arms": (_nested_arms(), False),
}

STEP_STATS = {
    'stack_pointer_add': (6, 1, ()),
    'stack_pointer_sub': (6, 1, ()),
    'alu32_mov_of_pointer_is_a_scalar': (4, 1, ()),
    'mov_imm_over_a_pointer': (4, 1, ()),
    'shifts_just_in_range': (9, 1, ()),
    'nonzero_divisors': (6, 1, ()),
    'register_divisors_and_shift_counts': (8, 1, ()),
    'neg_and_byte_swap': (6, 1, ()),
    'ctx_load_through_a_copy': (4, 1, ()),
    'ctx_load_over_a_pointer': (5, 1, ()),
    'ctx_load_into_an_unwritten_register': (3, 1, ()),
    'map_value_pointer_add': (13, 2, ('bpf_map_lookup_elem',)),
    'reserved_alu_op_steps_as_arithmetic': (4, 1, ()),
    'reserved_jump_op_steps_as_conditional': (4, 2, ()),
    'call_and_exit_with_the_source_bit': (3, 1, ('bpf_ktime_get_ns',)),
    'taken_arm_starts_with_arithmetic': (8, 2, ()),
    'nested_arms': (15, 5, ()),
}

# (ctx_size, load size, offset) -> "ok" or the exact message
CTX_BOUNDS_KEYS = [
    (ctx_size, size, offset)
    for ctx_size in (256, 16, 1)
    for size in (1, 2, 4, 8)
    for offset in (ctx_size - size, ctx_size - size + 1)
]
_SIZE_BITS = {1: op.BPF_B, 2: op.BPF_H, 4: op.BPF_W, 8: op.BPF_DW}

CTX_BOUNDS = {
    (256, 1, 255): 'ok',
    (256, 1, 256): 'ctx access [256, 257) out of bounds at 0',
    (256, 2, 254): 'ok',
    (256, 2, 255): 'ctx access [255, 257) out of bounds at 0',
    (256, 4, 252): 'ok',
    (256, 4, 253): 'ctx access [253, 257) out of bounds at 0',
    (256, 8, 248): 'ok',
    (256, 8, 249): 'ctx access [249, 257) out of bounds at 0',
    (16, 1, 15): 'ok',
    (16, 1, 16): 'ctx access [16, 17) out of bounds at 0',
    (16, 2, 14): 'ok',
    (16, 2, 15): 'ctx access [15, 17) out of bounds at 0',
    (16, 4, 12): 'ok',
    (16, 4, 13): 'ctx access [13, 17) out of bounds at 0',
    (16, 8, 8): 'ok',
    (16, 8, 9): 'ctx access [9, 17) out of bounds at 0',
    (1, 1, 0): 'ok',
    (1, 1, 1): 'ctx access [1, 2) out of bounds at 0',
    (1, 2, -1): 'ctx access [-1, 1) out of bounds at 0',
    (1, 2, 0): 'ctx access [0, 2) out of bounds at 0',
    (1, 4, -3): 'ctx access [-3, 1) out of bounds at 0',
    (1, 4, -2): 'ctx access [-2, 2) out of bounds at 0',
    (1, 8, -7): 'ctx access [-7, 1) out of bounds at 0',
    (1, 8, -6): 'ctx access [-6, 2) out of bounds at 0',
}


def _ctx_bound(key) -> str:
    ctx_size, size, offset = key
    asm = Asm().ldx(_SIZE_BITS[size], op.R0, op.R1, offset).exit_()
    try:
        verify(BpfProgram(asm.build()), ctx_size=ctx_size)
    except VerifierError as error:
        return str(error)
    return "ok"


# name -> (program source, uses the map); STEP_MESSAGES has the message
STEP_REJECTIONS = {
    "stack_pointer_add_tracks_offset": (
        _end(Asm().mov_reg(op.R2, op.R10).alu64_imm(op.BPF_ADD, op.R2, -520)
             .mov_imm(op.R7, 0).stx_dw(op.R2, op.R7, 0)),
        False,
    ),
    "stack_pointer_sub_tracks_offset": (
        Asm().mov_reg(op.R2, op.R10).alu64_imm(op.BPF_SUB, op.R2, 8)
        .ldx_dw(op.R0, op.R2, 0).exit_(),
        False,
    ),
    "alu32_mov_of_ctx_pointer": (
        Asm().raw(_alu32_reg(op.BPF_MOV, op.R2, op.R1)).ldx_b(op.R0, op.R2, 0).exit_(),
        False,
    ),
    "alu32_mov_of_stack_pointer": (
        _end(Asm().mov_imm(op.R7, 0).raw(_alu32_reg(op.BPF_MOV, op.R2, op.R10))
             .stx_dw(op.R2, op.R7, -8)),
        False,
    ),
    "scalar_plus_stack_pointer": (
        Asm().mov_imm(op.R0, 0).alu64_reg(op.BPF_ADD, op.R0, op.R10).exit_(), False,
    ),
    "scalar_xor_pointer_alu32": (
        Asm().mov_imm(op.R0, 0).raw(_alu32_reg(op.BPF_XOR, op.R0, op.R1)).exit_(), False,
    ),
    "scalar_shifted_by_pointer": (
        Asm().mov_imm(op.R0, 1).alu64_reg(op.BPF_LSH, op.R0, op.R1).exit_(), False,
    ),
    "scalar_divided_by_pointer": (
        Asm().mov_imm(op.R0, 1).alu64_reg(op.BPF_DIV, op.R0, op.R10).exit_(), False,
    ),
    "stack_pointer_plus_register": (
        _end(Asm().mov_reg(op.R2, op.R10).mov_imm(op.R3, 8)
             .alu64_reg(op.BPF_ADD, op.R2, op.R3)),
        False,
    ),
    "stack_pointer_add_alu32": (
        _end(Asm().mov_reg(op.R2, op.R10).alu32_imm(op.BPF_ADD, op.R2, -8)), False,
    ),
    "unwritten_dst": (
        _end(Asm().alu64_imm(op.BPF_ADD, op.R3, 1)), False,
    ),
    "unwritten_src": (
        Asm().mov_imm(op.R0, 0).alu64_reg(op.BPF_ADD, op.R0, op.R3).exit_(), False,
    ),
    "unwritten_dst_before_unwritten_src": (
        _end(Asm().alu64_reg(op.BPF_ADD, op.R3, op.R4)), False,
    ),
    "frame_pointer_add": (
        _end(Asm().alu64_imm(op.BPF_ADD, op.R10, 8)), False,
    ),
    "frame_pointer_before_unwritten_src": (
        _end(Asm().alu64_reg(op.BPF_ADD, op.R10, op.R5)), False,
    ),
    "frame_pointer_before_bad_shift": (
        _end(Asm().alu64_imm(op.BPF_LSH, op.R10, 64)), False,
    ),
    "arsh_64": (
        Asm().mov_imm(op.R0, 1).alu64_imm(op.BPF_ARSH, op.R0, 64).exit_(), False,
    ),
    "lsh_32_alu32": (
        Asm().mov_imm(op.R0, 1).alu32_imm(op.BPF_LSH, op.R0, 32).exit_(), False,
    ),
    "shift_by_minus_one": (
        Asm().mov_imm(op.R0, 1).alu64_imm(op.BPF_RSH, op.R0, -1).exit_(), False,
    ),
    "shift_by_unsigned_immediate": (
        Asm().mov_imm(op.R0, 1).alu64_imm(op.BPF_LSH, op.R0, 2**32 - 1).exit_(), False,
    ),
    "bad_shift_before_pointer_rule": (
        _end(Asm().alu64_imm(op.BPF_LSH, op.R1, 64)), False,
    ),
    "unwritten_dst_before_bad_shift": (
        _end(Asm().alu64_imm(op.BPF_LSH, op.R3, 64)), False,
    ),
    "mod_by_zero": (
        Asm().mov_imm(op.R0, 9).alu64_imm(op.BPF_MOD, op.R0, 0).exit_(), False,
    ),
    "div_by_zero_alu32": (
        Asm().mov_imm(op.R0, 9).alu32_imm(op.BPF_DIV, op.R0, 0).exit_(), False,
    ),
    "div_by_zero_before_pointer_rule": (
        _end(Asm().alu64_imm(op.BPF_DIV, op.R1, 0)), False,
    ),
    "unwritten_dst_before_div_by_zero": (
        _end(Asm().alu64_imm(op.BPF_DIV, op.R3, 0)), False,
    ),
    "ctx_negative_offset": (
        Asm().ldx_b(op.R0, op.R1, -1).exit_(), False,
    ),
    "ctx_copy_out_of_bounds": (
        Asm().mov_reg(op.R6, op.R1).ldx_w(op.R0, op.R6, 253).exit_(), False,
    ),
    "ctx_load_over_a_pointer_then_store_through_it": (
        _end(Asm().mov_reg(op.R2, op.R10).ldx_b(op.R2, op.R1, 0)
             .stx_dw(op.R2, op.R1, -8)),
        False,
    ),
    "ctx_load_over_the_ctx_pointer": (
        Asm().ldx_b(op.R1, op.R1, 0).ldx_b(op.R0, op.R1, 0).exit_(), False,
    ),
    "ctx_load_through_unwritten_register": (
        Asm().ldx_b(op.R0, op.R4, 0).exit_(), False,
    ),
    "map_value_pointer_add_out_of_bounds": (
        _end(_checked_lookup().alu64_imm(op.BPF_ADD, op.R0, 8)
             .ldx_b(op.R3, op.R0, 0).label("out")),
        True,
    ),
    "map_value_pointer_mul": (
        _end(_checked_lookup().alu64_imm(op.BPF_MUL, op.R0, 2).label("out")), True,
    ),
    "null_pointer_arithmetic": (
        _end(_lookup(Asm()).jmp_imm(op.BPF_JNE, op.R0, 0, "out")
             .alu64_imm(op.BPF_ADD, op.R0, 1).label("out")),
        True,
    ),
    # Two defects: the fall-through arm is explored to its end before
    # the taken arm is started, and the latest branch's taken arm
    # before an earlier one's.
    "both_arms_bad_fallthrough_reported": (
        _branch(Asm(), "arm").alu64_imm(op.BPF_ADD, op.R3, 1).ja("join")
        .label("arm").alu64_imm(op.BPF_ADD, op.R4, 1).label("join").exit_(),
        False,
    ),
    "taken_arm_bad_fallthrough_clean": (
        _branch(Asm(), "arm").alu64_imm(op.BPF_ADD, op.R0, 1).ja("join")
        .label("arm").alu64_imm(op.BPF_ADD, op.R4, 1).label("join").exit_(),
        False,
    ),
    "inner_taken_arm_before_outer_taken_arm": (
        _branch(Asm(), "outer").jmp_imm(op.BPF_JGT, op.R8, 1, "inner").exit_()
        .label("inner").alu64_imm(op.BPF_ADD, op.R3, 1).exit_()
        .label("outer").alu64_imm(op.BPF_ADD, op.R4, 1).exit_(),
        False,
    ),
    "past_the_join_before_the_taken_arm": (
        _branch(Asm(), "arm").mov_imm(op.R2, 1).ja("join")
        .label("arm").alu64_imm(op.BPF_ADD, op.R4, 1)
        .label("join").alu64_imm(op.BPF_ADD, op.R5, 1).exit_(),
        False,
    ),
    "exit_without_r0_on_the_taken_arm": (
        Asm().ldx_b(op.R8, op.R1, 0).jmp_imm(op.BPF_JGT, op.R8, 127, "arm")
        .mov_imm(op.R0, 0).label("arm").exit_(),
        False,
    ),
    "taken_arm_falls_off_the_end": (
        _branch(Asm(), "arm").exit_().label("arm").mov_imm(op.R2, 1), False,
    ),
    "jump_range_before_the_fallthrough": (
        Asm().mov_imm(op.R0, 0)
        .raw(Insn(op.BPF_JMP | op.BPF_JEQ, dst=op.R0, off=100))
        .alu64_imm(op.BPF_ADD, op.R3, 1).exit_(),
        False,
    ),
    "lddw_pairing_before_the_walk": (
        Asm().alu64_imm(op.BPF_ADD, op.R3, 1).raw(Insn(op.LDDW, dst=0, imm=0)).exit_(),
        False,
    ),
    "unreachable_bad_instruction": (
        Asm().mov_imm(op.R0, 0).exit_().mov_imm(op.R10, 1).exit_(), False,
    ),
    "unreachable_lddw": (
        Asm().mov_imm(op.R0, 0).exit_().lddw(op.R0, 5).exit_(), False,
    ),
    "reachable_defect_before_unreachable_code": (
        Asm().alu64_imm(op.BPF_ADD, op.R3, 1).exit_().mov_imm(op.R0, 0).exit_(), False,
    ),
}

STEP_MESSAGES = {
    'stack_pointer_add_tracks_offset': 'stack access [-520, -512) out of bounds at 3',
    'stack_pointer_sub_tracks_offset': 'read of uninitialized stack byte -8 at 2',
    'alu32_mov_of_ctx_pointer': 'load from non-pointer R2 (scalar) at 1',
    'alu32_mov_of_stack_pointer': 'store to non-pointer R2 at 2',
    'scalar_plus_stack_pointer': 'pointer used as scalar operand at 1',
    'scalar_xor_pointer_alu32': 'pointer used as scalar operand at 1',
    'scalar_shifted_by_pointer': 'pointer used as scalar operand at 1',
    'scalar_divided_by_pointer': 'pointer used as scalar operand at 1',
    'stack_pointer_plus_register': 'invalid pointer arithmetic on R2 at 2',
    'stack_pointer_add_alu32': 'invalid pointer arithmetic on R2 at 1',
    'unwritten_dst': 'R3 !read_ok at insn 0',
    'unwritten_src': 'R3 !read_ok at insn 1',
    'unwritten_dst_before_unwritten_src': 'R3 !read_ok at insn 0',
    'frame_pointer_add': 'frame pointer is read-only (insn 0)',
    'frame_pointer_before_unwritten_src': 'frame pointer is read-only (insn 0)',
    'frame_pointer_before_bad_shift': 'frame pointer is read-only (insn 0)',
    'arsh_64': 'invalid shift 64 at 1',
    'lsh_32_alu32': 'invalid shift 32 at 1',
    'shift_by_minus_one': 'invalid shift -1 at 1',
    'shift_by_unsigned_immediate': 'invalid shift 4294967295 at 1',
    'bad_shift_before_pointer_rule': 'invalid shift 64 at 0',
    'unwritten_dst_before_bad_shift': 'R3 !read_ok at insn 0',
    'mod_by_zero': 'division by zero constant at 1',
    'div_by_zero_alu32': 'division by zero constant at 1',
    'div_by_zero_before_pointer_rule': 'division by zero constant at 0',
    'unwritten_dst_before_div_by_zero': 'R3 !read_ok at insn 0',
    'ctx_negative_offset': 'ctx access [-1, 0) out of bounds at 0',
    'ctx_copy_out_of_bounds': 'ctx access [253, 257) out of bounds at 1',
    'ctx_load_over_a_pointer_then_store_through_it': 'store to non-pointer R2 at 2',
    'ctx_load_over_the_ctx_pointer': 'load from non-pointer R1 (scalar) at 1',
    'ctx_load_through_unwritten_register': 'R4 !read_ok at insn 0',
    'map_value_pointer_add_out_of_bounds': 'map value access [8, 9) outside value_size=8 at 9',
    'map_value_pointer_mul': 'invalid pointer arithmetic on R0 at 8',
    'null_pointer_arithmetic': 'arithmetic on null pointer R0 at 8',
    'both_arms_bad_fallthrough_reported': 'R3 !read_ok at insn 3',
    'taken_arm_bad_fallthrough_clean': 'R4 !read_ok at insn 5',
    'inner_taken_arm_before_outer_taken_arm': 'R3 !read_ok at insn 5',
    'past_the_join_before_the_taken_arm': 'R5 !read_ok at insn 6',
    'exit_without_r0_on_the_taken_arm': 'R0 !read_ok at exit (3)',
    'taken_arm_falls_off_the_end': 'jump out of range to 5',
    'jump_range_before_the_fallthrough': 'jump out of range: 1 -> 102',
    'lddw_pairing_before_the_walk': 'LDDW second half has nonzero opcode',
    'unreachable_bad_instruction': 'unreachable instruction at 2',
    'unreachable_lddw': 'unreachable instruction at 2',
    'reachable_defect_before_unreachable_code': 'R3 !read_ok at insn 0',
}


def _verify(asm: Asm, with_map: bool):
    program = BpfProgram(asm.build(), map_names=("m",) if with_map else ())
    return verify(program, maps=GEO if with_map else {})


def _stats(stats):
    return stats.states_visited, stats.peak_queue, stats.helpers_called


@pytest.mark.parametrize("key", sorted(STRESS_STATS))
def test_stress_program_exploration_is_pinned(key):
    size, seed, with_map = key
    program = make_stress_program(size, seed=seed, with_map=bool(with_map))
    stats = verify(program, maps=GEO if with_map else {})
    assert stats.insn_count == size
    assert _stats(stats) == STRESS_STATS[key]


@pytest.mark.parametrize("name", sorted(JOIN_STATS))
def test_join_heavy_exploration_is_pinned(name):
    build, with_map, expected = JOIN_STATS[name]
    assert _stats(_verify(build(), with_map)) == expected


def test_pruning_both_fires_and_does_not():
    """The join corpus covers both outcomes of the memo lookup."""
    equal = _verify(join_equal(), False)
    dead = _verify(join_dead(), False)
    # Equal arms: every re-arrival at a join is pruned, so each
    # instruction is visited once.  Differing arms: the tail is explored
    # again per path.
    assert equal.states_visited == equal.insn_count
    assert dead.states_visited > 3 * dead.insn_count


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejection_message_is_pinned(name):
    asm, with_map, message = REJECTIONS[name]
    with pytest.raises(VerifierError) as caught:
        _verify(asm, with_map)
    assert str(caught.value) == message


@pytest.mark.parametrize("name", sorted(STEP_PROGRAMS))
def test_stepped_exploration_is_pinned(name):
    asm, with_map = STEP_PROGRAMS[name]
    assert _stats(_verify(asm, with_map)) == STEP_STATS[name]


@pytest.mark.parametrize("name", sorted(STEP_REJECTIONS))
def test_stepped_rejection_message_is_pinned(name):
    asm, with_map = STEP_REJECTIONS[name]
    with pytest.raises(VerifierError) as caught:
        _verify(asm, with_map)
    assert str(caught.value) == STEP_MESSAGES[name]


@pytest.mark.parametrize("key", CTX_BOUNDS_KEYS)
def test_ctx_bound_is_pinned(key):
    assert _ctx_bound(key) == CTX_BOUNDS[key]


def test_step_tables_cover_every_row():
    assert sorted(STEP_STATS) == sorted(STEP_PROGRAMS)
    assert list(CTX_BOUNDS) == CTX_BOUNDS_KEYS
    assert sorted(STEP_MESSAGES) == sorted(STEP_REJECTIONS)


if __name__ == "__main__":
    print("STEP_STATS = {")
    for row_name, (row_asm, row_map) in STEP_PROGRAMS.items():
        print(f"    {row_name!r}: {_stats(_verify(row_asm, row_map))!r},")
    print("}\n\nCTX_BOUNDS = {")
    for bounds_key in CTX_BOUNDS_KEYS:
        print(f"    {bounds_key!r}: {_ctx_bound(bounds_key)!r},")
    print("}\n\nSTEP_MESSAGES = {")
    for row_name, (row_asm, row_map) in STEP_REJECTIONS.items():
        try:
            _verify(row_asm, row_map)
        except VerifierError as rejection:
            print(f"    {row_name!r}: {str(rejection)!r},")
        else:
            print(f"    {row_name!r}: None,  # accepted")
    print("}")

"""Verifier equivalence oracle.

The verifier's state representation is an implementation detail; what
it explores is not.  These tables were taken from the dataclass-based
verifier of PR 12 (commit ece2f30) and pin, per program, the exact
``(states_visited, peak_queue, helpers_called)`` and, per bad program,
the exact rejection message.  ``states_visited`` feeds the simulated
verify cost, so a pruning change is a change to sim-clock numbers.
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

"""Verifier tests: what must pass, what must be rejected, and why."""

import pytest

from repro.errors import VerifierError
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.insn import Insn
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import MapGeometry, verify

GEO = {0: MapGeometry(key_size=4, value_size=8)}


def prog(asm: Asm, maps=()) -> BpfProgram:
    return BpfProgram(asm.build(), map_names=tuple(maps))


def accept(asm: Asm, maps=None):
    return verify(prog(asm, tuple(maps or ())), maps=GEO if maps else {})


def reject(asm: Asm, match: str, maps=None):
    with pytest.raises(VerifierError, match=match):
        verify(prog(asm, tuple(maps or ())), maps=GEO if maps else {})


class TestBasicAcceptance:
    def test_minimal_program(self):
        stats = accept(Asm().mov_imm(op.R0, 0).exit_())
        assert stats.insn_count == 2
        assert stats.states_visited >= 2

    def test_ctx_load(self):
        accept(Asm().ldx_b(op.R0, op.R1, 0).exit_())

    def test_stack_store_load(self):
        accept(
            Asm()
            .mov_imm(op.R2, 7)
            .stx_dw(op.R10, op.R2, -8)
            .ldx_dw(op.R0, op.R10, -8)
            .exit_()
        )

    def test_forward_branch_both_paths(self):
        accept(
            Asm()
            .mov_imm(op.R0, 0)
            .jmp_imm(op.BPF_JEQ, op.R0, 0, "skip")
            .mov_imm(op.R0, 1)
            .label("skip")
            .exit_()
        )

    def test_lddw_scalar(self):
        accept(Asm().lddw(op.R0, 0x1234567890).exit_())

    def test_map_lookup_with_null_check(self):
        asm = (
            Asm()
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .jmp_imm(op.BPF_JEQ, op.R0, 0, "out")
            .ldx_w(op.R3, op.R0, 0)
            .label("out")
            .mov_imm(op.R0, 0)
            .exit_()
        )
        stats = accept(asm, maps=["m"])
        assert "bpf_map_lookup_elem" in stats.helpers_called

    def test_pointer_spill_and_fill(self):
        accept(
            Asm()
            .stx_dw(op.R10, op.R1, -8)  # spill ctx pointer
            .ldx_dw(op.R2, op.R10, -8)  # fill it back
            .ldx_b(op.R0, op.R2, 0)     # use as ctx pointer
            .exit_()
        )


class TestRejections:
    def test_empty_program(self):
        with pytest.raises(VerifierError, match="empty"):
            verify(BpfProgram([]))

    def test_uninitialized_register(self):
        reject(Asm().mov_reg(op.R0, op.R5).exit_(), "read_ok")

    def test_exit_without_r0(self):
        reject(Asm().mov_imm(op.R1, 0).exit_(), "R0 !read_ok")

    def test_fallthrough_off_end(self):
        reject(Asm().mov_imm(op.R0, 0), "out of range|jump out")

    def test_backward_jump(self):
        asm = Asm().label("top").mov_imm(op.R0, 0)
        asm._fixups.append((len(asm._insns), "top"))
        asm.raw(Insn(op.BPF_JMP | op.BPF_JA))
        asm.exit_()
        reject(asm, "back-edge")

    def test_write_to_frame_pointer(self):
        reject(Asm().mov_imm(op.R10, 0).exit_(), "read-only")

    def test_load_into_frame_pointer(self):
        """R10 is read-only to every instruction that writes a
        register, not to arithmetic alone."""
        reject(
            Asm().mov_imm(op.R0, 0).ldx_b(op.R10, op.R1, 0).exit_(),
            r"^frame pointer is read-only \(insn 1\)$",
        )

    def test_lddw_into_frame_pointer(self):
        reject(
            Asm().mov_imm(op.R0, 0).lddw(op.R10, 0x1234).exit_(),
            r"^frame pointer is read-only \(insn 1\)$",
        )

    def test_jmp32_call_is_reserved(self):
        """The JIT relocates ``BPF_JMP | BPF_CALL`` only, so a call in
        the 32-bit jump class would run with an address nothing linked
        or checked."""
        insn = Insn(op.BPF_JMP32 | op.BPF_CALL, imm=5)
        reject(Asm().raw(insn).exit_(), r"^unsupported opcode 0x86 at 0$")

    def test_jmp32_exit_is_reserved(self):
        insn = Insn(op.BPF_JMP32 | op.BPF_EXIT)
        reject(Asm().mov_imm(op.R0, 0).raw(insn), r"^unsupported opcode 0x96 at 1$")

    def test_jmp32_ja_is_reserved(self):
        insn = Insn(op.BPF_JMP32 | op.BPF_JA | op.BPF_X, off=0)
        reject(
            Asm().mov_imm(op.R0, 0).raw(insn).exit_(),
            r"^unsupported opcode 0x0e at 1$",
        )

    def test_stack_out_of_bounds_low(self):
        reject(
            Asm().mov_imm(op.R2, 1).stx_dw(op.R10, op.R2, -520).mov_imm(op.R0, 0).exit_(),
            "stack access",
        )

    def test_stack_positive_offset(self):
        reject(
            Asm().mov_imm(op.R2, 1).stx_dw(op.R10, op.R2, 8).mov_imm(op.R0, 0).exit_(),
            "stack access",
        )

    def test_read_uninitialized_stack(self):
        reject(
            Asm().ldx_dw(op.R0, op.R10, -8).exit_(),
            "uninitialized stack",
        )

    def test_ctx_out_of_bounds(self):
        reject(Asm().ldx_w(op.R0, op.R1, 254).exit_(), "ctx access")

    def test_ctx_store_rejected(self):
        reject(
            Asm().mov_imm(op.R2, 0).stx(op.BPF_W, op.R1, op.R2, 0)
            .mov_imm(op.R0, 0).exit_(),
            "read-only",
        )

    def test_division_by_zero_const(self):
        reject(
            Asm().mov_imm(op.R0, 10).alu64_imm(op.BPF_DIV, op.R0, 0).exit_(),
            "division by zero",
        )

    def test_oversized_shift(self):
        reject(
            Asm().mov_imm(op.R0, 1).alu64_imm(op.BPF_LSH, op.R0, 64).exit_(),
            "invalid shift",
        )

    def test_pointer_arithmetic_mul(self):
        reject(
            Asm().alu64_imm(op.BPF_MUL, op.R1, 2).mov_imm(op.R0, 0).exit_(),
            "arithmetic",
        )

    def test_pointer_as_scalar_operand(self):
        reject(
            Asm().mov_imm(op.R0, 0).alu64_reg(op.BPF_ADD, op.R0, op.R1).exit_(),
            "pointer used as scalar",
        )

    def test_map_value_deref_without_null_check(self):
        asm = (
            Asm()
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .ldx_w(op.R3, op.R0, 0)  # no null check!
            .mov_imm(op.R0, 0)
            .exit_()
        )
        reject(asm, "NULL", maps=["m"])

    def test_map_value_out_of_bounds(self):
        asm = (
            Asm()
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .jmp_imm(op.BPF_JEQ, op.R0, 0, "out")
            .ldx_dw(op.R3, op.R0, 4)  # 8-byte read at offset 4 of 8-byte value
            .label("out")
            .mov_imm(op.R0, 0)
            .exit_()
        )
        reject(asm, "map value access", maps=["m"])

    def test_unknown_helper(self):
        reject(Asm().call(999).exit_(), "unknown helper")

    def test_helper_bad_arg_type(self):
        # map_lookup expects a map pointer in R1, not a scalar.
        asm = (
            Asm()
            .mov_imm(op.R1, 0)
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .call(1)
            .exit_()
        )
        reject(asm, "expects map pointer", maps=["m"])

    def test_helper_uninitialized_key(self):
        asm = (
            Asm()
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .mov_imm(op.R0, 0)
            .exit_()
        )
        reject(asm, "uninitialized stack", maps=["m"])

    def test_caller_saved_clobbered_by_call(self):
        asm = (
            Asm()
            .mov_imm(op.R3, 5)
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .mov_reg(op.R0, op.R3)  # R3 was clobbered by the call
            .exit_()
        )
        reject(asm, "R3 !read_ok", maps=["m"])

    def test_unknown_map_slot(self):
        reject(
            Asm().ld_map_fd(op.R1, 7).mov_imm(op.R0, 0).exit_(),
            "unknown map slot",
        )

    def test_unreachable_code(self):
        asm = Asm().mov_imm(op.R0, 0).exit_().mov_imm(op.R0, 1).exit_()
        reject(asm, "unreachable")

    def test_lddw_at_end(self):
        asm = Asm().mov_imm(op.R0, 0)
        asm.raw(Insn(op.LDDW, dst=0, imm=0))
        reject(asm, "LDDW at end")

    def test_jump_into_lddw_middle(self):
        asm = Asm()
        asm.jmp_imm(op.BPF_JEQ, op.R1, 0, "mid")  # R1 is ptr; use JA instead
        asm._fixups.clear()
        asm._insns.clear()
        asm.ja("mid")
        asm.lddw(op.R0, 5)
        # "mid" lands on the second half of the LDDW.
        asm._labels["mid"] = 2
        asm.exit_()
        reject(asm, "middle of LDDW|nonzero opcode|unreachable")

    def test_neg_on_pointer(self):
        reject(Asm().neg(op.R1).mov_imm(op.R0, 0).exit_(), "NEG on pointer")


class TestComplexity:
    def test_linear_states_on_branchy_program(self):
        asm = Asm().mov_imm(op.R0, 0)
        for index in range(100):
            asm.ldx_b(op.R2, op.R1, index % 200)
            asm.jmp_imm(op.BPF_JGT, op.R2, 128, f"skip{index}")
            asm.alu64_imm(op.BPF_ADD, op.R0, 1)
            asm.label(f"skip{index}")
        asm.exit_()
        stats = accept(asm)
        # State merging must keep exploration near-linear.
        assert stats.states_visited < 3 * stats.insn_count

    def test_too_large_program(self):
        insns = [Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0, imm=0)] * (
            op.MAX_INSNS + 1
        )
        with pytest.raises(VerifierError, match="too large"):
            verify(BpfProgram(insns))


class TestLoaderMemo:
    def test_memo_never_crosses_map_geometry(self):
        """The local loader's memo may not hand a verdict reached for
        8-byte map values to a load against 2-byte ones."""
        from repro.ebpf.loader import LocalLoader
        from repro.ebpf.maps import BpfMap, MapType
        from repro.ebpf.stress import make_stress_program

        program = make_stress_program(100, seed=1, with_map=True)
        loader = LocalLoader()
        wide = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        narrow = BpfMap(MapType.ARRAY, 4, 2, 4, name="stress_map")
        first = loader.verify_and_jit(program, [wide])
        assert loader.verify_and_jit(program, [wide]) is first
        with pytest.raises(VerifierError, match="outside value_size=2"):
            loader.verify_and_jit(program, [narrow])

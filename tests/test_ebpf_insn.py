"""Instruction encode/decode tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError
from repro.ebpf import opcodes as op
from repro.ebpf.insn import Insn, decode_program, encode_program, lddw_pair


class TestEncoding:
    def test_eight_bytes(self):
        insn = Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=1, imm=42)
        assert len(insn.encode()) == 8

    def test_roundtrip_simple(self):
        insn = Insn(op.BPF_JMP | op.BPF_JEQ | op.BPF_K, dst=3, src=0, off=-2, imm=7)
        assert Insn.decode(insn.encode()) == insn

    @given(
        st.integers(0, 255),
        st.integers(0, 10),
        st.integers(0, 15),
        st.integers(-(2**15), 2**15 - 1),
        st.integers(-(2**31), 2**31 - 1),
    )
    def test_roundtrip_property(self, opcode, dst, src, off, imm):
        insn = Insn(opcode=opcode, dst=dst, src=src, off=off, imm=imm)
        assert Insn.decode(insn.encode()) == insn

    def test_negative_imm_roundtrip(self):
        insn = Insn(op.BPF_ALU64 | op.BPF_ADD | op.BPF_K, dst=0, imm=-1)
        assert Insn.decode(insn.encode()).imm == -1

    def test_bad_register_rejected(self):
        with pytest.raises(ReproError):
            Insn(opcode=0, dst=11)

    def test_bad_offset_rejected(self):
        with pytest.raises(ReproError):
            Insn(opcode=0, off=2**15)

    def test_decode_wrong_length(self):
        with pytest.raises(ReproError):
            Insn.decode(b"short")


class TestProgramImage:
    def test_encode_decode_program(self):
        insns = [
            Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0, imm=1),
            Insn(op.BPF_JMP | op.BPF_EXIT),
        ]
        assert decode_program(encode_program(insns)) == insns

    def test_decode_misaligned_image(self):
        with pytest.raises(ReproError):
            decode_program(b"123456789")

    def test_lddw_pair_splits_imm64(self):
        pair = lddw_pair(dst=2, imm64=0x1122334455667788)
        assert pair[0].opcode == op.LDDW
        assert pair[0].imm == 0x55667788
        assert pair[1].imm == 0x11223344

    def test_lddw_pair_map_fd(self):
        pair = lddw_pair(dst=1, imm64=3, src=op.PSEUDO_MAP_FD)
        assert pair[0].src == op.PSEUDO_MAP_FD
        assert pair[0].imm == 3


class TestProgramIdentity:
    """``tag()`` is memoised; it must be impossible to make it stale."""

    def program(self):
        from repro.ebpf.stress import make_stress_program

        return make_stress_program(71, seed=3)

    def test_image_and_tag_follow_the_instructions(self):
        import hashlib

        program = self.program()
        assert program.image() == encode_program(program.insns)
        assert program.tag() == hashlib.sha1(program.image()).hexdigest()[:16]
        assert program.metadata.tag == program.tag()

    def test_variant_has_its_own_tag(self):
        from repro.ebpf.stress import make_stress_variant

        program = self.program()
        variant = make_stress_variant(program, imm=9)
        assert variant.tag() != program.tag()
        assert variant.image() == encode_program(variant.insns)

    def test_replace_recomputes_the_tag(self):
        from dataclasses import replace

        program = self.program()
        edited = replace(program, insns=program.insns[:-2] + program.insns[-1:])
        assert edited.tag() != program.tag()
        assert edited.tag() == type(program)(edited.insns).tag()
        assert edited.metadata.tag == edited.tag()
        assert edited.metadata.insn_cnt == len(edited.insns)
        assert program.metadata.tag == program.tag()  # the original's is intact

    def test_instructions_cannot_be_edited_in_place(self):
        program = self.program()
        tag = program.tag()
        other = Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0, imm=7)
        with pytest.raises(TypeError):
            program.insns[0] = other
        with pytest.raises(AttributeError):
            program.insns.append(other)
        with pytest.raises(AttributeError):
            program.insns = [other]
        with pytest.raises(AttributeError):
            program.insns[0].imm = 7
        assert program.tag() == tag

    def test_caller_keeps_no_handle_on_the_instructions(self):
        from repro.ebpf.program import BpfProgram

        source = list(self.program().insns)
        program = BpfProgram(source)
        tag = program.tag()
        source[0] = Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=0, imm=7)
        assert program.tag() == tag
        assert program.image() == encode_program(program.insns)

    def test_wasm_module_identity_is_sealed_too(self):
        from dataclasses import replace

        from repro.wasm.filters import make_header_filter

        module = make_header_filter(version=1)
        tag = module.tag()
        with pytest.raises(AttributeError):
            module.insns = module.insns[:-1]
        assert module.tag() == tag
        assert replace(module, insns=module.insns[:-1]).tag() != tag

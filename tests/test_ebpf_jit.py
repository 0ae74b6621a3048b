"""JIT tests: relocation records, linking, and corruption detection."""

import pytest

from repro.errors import JitError, SandboxCrash
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.insn import Insn
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.jit import (
    PLACEHOLDER,
    RelocKind,
    decode_image,
    jit_compile,
)
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program

HELPER_ADDR = {"bpf_map_lookup_elem": 0xAA00_0040, "bpf_ktime_get_ns": 0xAA00_0140}
MAP_ADDR = {"m0": 0x7F00_0000}


def resolve(reloc):
    if reloc.kind is RelocKind.HELPER:
        return HELPER_ADDR[reloc.symbol]
    return MAP_ADDR[reloc.symbol]


def helper_at(address):
    return {0xAA00_0040: 1, 0xAA00_0140: 5}.get(address)


def map_slot_at(address):
    return {0x7F00_0000: 0}.get(address)


def simple_prog():
    return BpfProgram(
        Asm().mov_imm(op.R0, 9).exit_().build(), name="simple"
    )


def helper_prog():
    return BpfProgram(Asm().call(5).exit_().build(), name="uses_helper")


def map_prog():
    asm = (
        Asm()
        .mov_imm(op.R8, 0)
        .stx(op.BPF_W, op.R10, op.R8, -4)
        .mov_reg(op.R2, op.R10)
        .alu64_imm(op.BPF_ADD, op.R2, -4)
        .ld_map_fd(op.R1, 0)
        .call(1)
        .jmp_imm(op.BPF_JEQ, op.R0, 0, "out")
        .ldx_dw(op.R0, op.R0, 0)
        .exit_()
        .label("out")
        .mov_imm(op.R0, 0)
        .exit_()
    )
    return BpfProgram(asm.build(), name="uses_map", map_names=("m0",))


class TestCompile:
    def test_inline_program_has_no_relocations(self):
        binary = jit_compile(simple_prog())
        assert binary.relocations == []
        assert binary.is_linked

    def test_helper_call_emits_relocation(self):
        binary = jit_compile(helper_prog())
        assert len(binary.relocations) == 1
        assert binary.relocations[0].kind is RelocKind.HELPER
        assert binary.relocations[0].symbol == "bpf_ktime_get_ns"
        assert not binary.is_linked

    def test_map_ref_emits_relocation(self):
        binary = jit_compile(map_prog())
        kinds = {r.kind for r in binary.relocations}
        assert kinds == {RelocKind.HELPER, RelocKind.MAP}

    def test_symbol_table_offsets(self):
        binary = jit_compile(map_prog())
        for symbol, offsets in binary.symbols.items():
            for offset in offsets:
                operand = binary.code[offset : offset + 8]
                assert int.from_bytes(operand, "little") == PLACEHOLDER

    def test_arch_variants_differ(self):
        x86 = jit_compile(simple_prog(), arch="x86_64")
        arm = jit_compile(simple_prog(), arch="arm64")
        assert x86.code != arm.code

    def test_unknown_arch(self):
        with pytest.raises(JitError):
            jit_compile(simple_prog(), arch="riscv")

    def test_unknown_helper_rejected(self):
        prog = BpfProgram(Asm().call(999).exit_().build())
        with pytest.raises(JitError):
            jit_compile(prog)

    def test_negative_map_slot_rejected(self):
        """A slot below zero names no map: it must not index the names
        from the end (slot -1 would relocate against ``"b"``)."""
        insns = [
            Insn(op.LDDW, dst=op.R1, src=op.PSEUDO_MAP_FD, imm=-1),
            Insn(0),
            *Asm().mov_imm(op.R0, 0).exit_().build(),
        ]
        prog = BpfProgram(insns, map_names=("a", "b"))
        with pytest.raises(JitError, match=r"^map slot -1 out of range$"):
            jit_compile(prog)


class TestLinkAndDecode:
    def test_roundtrip_inline(self):
        binary = jit_compile(simple_prog())
        insns = decode_image(binary.code, helper_at, map_slot_at)
        assert Interpreter().run(insns, b"").r0 == 9

    def test_roundtrip_with_relocations(self):
        bpf_map = BpfMap(MapType.ARRAY, 4, 8, 4, name="m0")
        bpf_map.update((0).to_bytes(4, "little"), (321).to_bytes(8, "little"))
        linked = jit_compile(map_prog()).link(resolve)
        assert linked.is_linked
        insns = decode_image(linked.code, helper_at, map_slot_at)
        assert Interpreter(maps=[bpf_map]).run(insns, b"").r0 == 321

    def test_stress_program_differential(self):
        program = make_stress_program(1300, seed=7, with_map=True)
        bpf_map = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
        linked = jit_compile(program).link(
            lambda r: HELPER_ADDR.get(r.symbol, 0x7F00_0000)
        )
        insns = decode_image(
            linked.code, helper_at, lambda a: 0 if a == 0x7F00_0000 else None
        )
        ctx = bytes(range(256))
        direct = Interpreter(maps=[bpf_map]).run(program.insns, ctx).r0
        via_jit = Interpreter(maps=[bpf_map]).run(insns, ctx).r0
        assert direct == via_jit

    def test_unresolved_symbol_fails_link(self):
        binary = jit_compile(helper_prog())
        with pytest.raises(JitError, match="unresolved"):
            binary.link(lambda r: None)


class TestCorruptionDetection:
    def test_unlinked_execution_crashes(self):
        binary = jit_compile(helper_prog())
        with pytest.raises(SandboxCrash, match="unresolved"):
            decode_image(binary.code, helper_at, map_slot_at)

    def test_unknown_helper_address_crashes(self):
        linked = jit_compile(helper_prog()).link(lambda r: 0xDDDD)
        with pytest.raises(SandboxCrash, match="unknown"):
            decode_image(linked.code, helper_at, map_slot_at)

    def test_flipped_byte_crashes(self):
        binary = jit_compile(simple_prog())
        corrupt = bytearray(binary.code)
        corrupt[12] ^= 0xFF
        with pytest.raises(SandboxCrash):
            decode_image(bytes(corrupt), helper_at, map_slot_at)

    def test_truncation_crashes(self):
        binary = jit_compile(simple_prog())
        with pytest.raises(SandboxCrash):
            decode_image(binary.code[:-6], helper_at, map_slot_at)

    def test_torn_write_mix_crashes(self):
        """Half-old/half-new image (the §3.5 partial-read hazard)."""
        old = jit_compile(simple_prog()).code
        new = jit_compile(
            BpfProgram(Asm().mov_imm(op.R0, 10).exit_().build())
        ).code
        assert len(old) == len(new)
        torn = new[: len(new) // 2] + old[len(old) // 2 :]
        with pytest.raises(SandboxCrash):
            decode_image(torn, helper_at, map_slot_at)

    def test_wrong_arch_crashes(self):
        binary = jit_compile(simple_prog(), arch="arm64")
        with pytest.raises(SandboxCrash, match="architecture"):
            decode_image(binary.code, helper_at, map_slot_at, expect_arch="x86_64")

    def test_bad_magic_crashes(self):
        binary = jit_compile(simple_prog())
        with pytest.raises(SandboxCrash, match="magic"):
            decode_image(b"XX" + binary.code[2:], helper_at, map_slot_at)

    def test_empty_image_crashes(self):
        with pytest.raises(SandboxCrash, match="too short"):
            decode_image(b"", helper_at, map_slot_at)

    def test_crc_survives_correct_link(self):
        linked = jit_compile(helper_prog()).link(resolve)
        insns = decode_image(linked.code, helper_at, map_slot_at)
        assert insns  # decodes cleanly after re-checksumming

"""Interpreter semantics tests: ALU, jumps, memory, helpers, maps."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.errors import SandboxError
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.insn import Insn, lddw_pair
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.maps import BpfMap, MapType

U64 = (1 << 64) - 1


def run(asm: Asm, ctx: bytes = b"\x00" * 256, maps=()):
    return Interpreter(maps=list(maps)).run(asm.build(), ctx)


class TestAlu64:
    @pytest.mark.parametrize(
        "alu_op,a,b,expected",
        [
            (op.BPF_ADD, 3, 4, 7),
            (op.BPF_SUB, 3, 4, (3 - 4) & U64),
            (op.BPF_MUL, 5, 6, 30),
            (op.BPF_DIV, 17, 5, 3),
            (op.BPF_MOD, 17, 5, 2),
            (op.BPF_OR, 0b100, 0b011, 0b111),
            (op.BPF_AND, 0b110, 0b011, 0b010),
            (op.BPF_XOR, 0b110, 0b011, 0b101),
            (op.BPF_LSH, 1, 8, 256),
            (op.BPF_RSH, 256, 8, 1),
        ],
    )
    def test_binary_ops(self, alu_op, a, b, expected):
        asm = (
            Asm()
            .mov_imm(op.R0, a)
            .mov_imm(op.R2, b)
            .alu64_reg(alu_op, op.R0, op.R2)
            .exit_()
        )
        assert run(asm).r0 == expected

    def test_div_by_zero_yields_zero(self):
        asm = (
            Asm().mov_imm(op.R0, 42).mov_imm(op.R2, 0)
            .alu64_reg(op.BPF_DIV, op.R0, op.R2).exit_()
        )
        assert run(asm).r0 == 0

    def test_mod_by_zero_keeps_dividend(self):
        asm = (
            Asm().mov_imm(op.R0, 42).mov_imm(op.R2, 0)
            .alu64_reg(op.BPF_MOD, op.R0, op.R2).exit_()
        )
        assert run(asm).r0 == 42

    def test_arsh_sign_extends(self):
        asm = (
            Asm()
            .mov_imm(op.R0, -16)
            .alu64_imm(op.BPF_ARSH, op.R0, 2)
            .exit_()
        )
        assert run(asm).r0 == (-4) & U64

    def test_neg(self):
        asm = Asm().mov_imm(op.R0, 5).neg(op.R0).exit_()
        assert run(asm).r0 == (-5) & U64

    def test_wrap_at_64_bits(self):
        asm = (
            Asm()
            .lddw(op.R0, U64)
            .alu64_imm(op.BPF_ADD, op.R0, 1)
            .exit_()
        )
        assert run(asm).r0 == 0

    def test_alu32_truncates(self):
        asm = (
            Asm()
            .lddw(op.R0, 0xFFFF_FFFF_FFFF_FFFF)
            .alu32_imm(op.BPF_ADD, op.R0, 1)
            .exit_()
        )
        assert run(asm).r0 == 0  # 32-bit wrap zero-extends

    @given(st.integers(0, U64), st.integers(0, U64))
    def test_add_matches_python(self, a, b):
        asm = (
            Asm().lddw(op.R0, a).lddw(op.R2, b)
            .alu64_reg(op.BPF_ADD, op.R0, op.R2).exit_()
        )
        assert run(asm).r0 == (a + b) & U64


class TestJumps:
    @pytest.mark.parametrize(
        "jmp_op,a,b,taken",
        [
            (op.BPF_JEQ, 5, 5, True),
            (op.BPF_JNE, 5, 5, False),
            (op.BPF_JGT, 6, 5, True),
            (op.BPF_JGE, 5, 5, True),
            (op.BPF_JLT, 4, 5, True),
            (op.BPF_JLE, 5, 5, True),
            (op.BPF_JSET, 0b110, 0b010, True),
            (op.BPF_JSET, 0b100, 0b010, False),
        ],
    )
    def test_conditionals(self, jmp_op, a, b, taken):
        asm = (
            Asm()
            .mov_imm(op.R2, a)
            .mov_imm(op.R3, b)
            .mov_imm(op.R0, 0)
            .jmp_reg(jmp_op, op.R2, op.R3, "yes")
            .exit_()
            .label("yes")
            .mov_imm(op.R0, 1)
            .exit_()
        )
        assert run(asm).r0 == (1 if taken else 0)

    def test_signed_compare(self):
        # -1 (unsigned huge) JSGT 0 must NOT be taken.
        asm = (
            Asm()
            .mov_imm(op.R2, -1)
            .mov_imm(op.R0, 0)
            .jmp_imm(op.BPF_JSGT, op.R2, 0, "yes")
            .exit_()
            .label("yes")
            .mov_imm(op.R0, 1)
            .exit_()
        )
        assert run(asm).r0 == 0

    def test_unconditional(self):
        asm = (
            Asm().mov_imm(op.R0, 1).ja("end").mov_imm(op.R0, 2)
            .label("end").exit_()
        )
        assert run(asm).r0 == 1


class TestMemory:
    def test_ctx_byte_read(self):
        asm = Asm().ldx_b(op.R0, op.R1, 3).exit_()
        assert run(asm, ctx=bytes([0, 0, 0, 0xAB]) + bytes(252)).r0 == 0xAB

    def test_ctx_word_read_little_endian(self):
        ctx = bytes([0x78, 0x56, 0x34, 0x12]) + bytes(252)
        asm = Asm().ldx_w(op.R0, op.R1, 0).exit_()
        assert run(asm, ctx=ctx).r0 == 0x12345678

    def test_stack_roundtrip_all_sizes(self):
        for size, mask in [
            (op.BPF_B, 0xFF),
            (op.BPF_H, 0xFFFF),
            (op.BPF_W, 0xFFFFFFFF),
            (op.BPF_DW, U64),
        ]:
            asm = (
                Asm()
                .lddw(op.R2, 0x1122334455667788)
                .stx(size, op.R10, op.R2, -8)
                .ldx(size, op.R0, op.R10, -8)
                .exit_()
            )
            assert run(asm).r0 == 0x1122334455667788 & mask

    def test_st_immediate(self):
        asm = (
            Asm()
            .st_imm(op.BPF_W, op.R10, -4, 0xCAFE)
            .ldx_w(op.R0, op.R10, -4)
            .exit_()
        )
        assert run(asm).r0 == 0xCAFE

    def test_ctx_write_faults(self):
        asm = Asm().mov_imm(op.R2, 1).stx(op.BPF_B, op.R1, op.R2, 0).exit_()
        with pytest.raises(SandboxError, match="read-only"):
            run(asm)

    def test_wild_pointer_faults(self):
        asm = Asm().mov_imm(op.R2, 0x123).ldx_b(op.R0, op.R2, 0).exit_()
        with pytest.raises(SandboxError, match="bad memory access"):
            run(asm)

    def test_pc_out_of_range_faults(self):
        asm = Asm().mov_imm(op.R0, 0)  # no exit
        with pytest.raises(SandboxError, match="pc"):
            run(asm)

    def test_instruction_budget(self):
        # A self-loop via raw backward jump (interpreter-level guard;
        # the verifier would reject this).
        insns = [Insn(op.BPF_JMP | op.BPF_JA, off=-1)]
        with pytest.raises(SandboxError, match="budget"):
            Interpreter(insn_budget=1000).run(insns, b"")


class TestHelpersAndMaps:
    def _lookup_prog(self):
        return (
            Asm()
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .jmp_imm(op.BPF_JEQ, op.R0, 0, "miss")
            .ldx_dw(op.R0, op.R0, 0)
            .exit_()
            .label("miss")
            .mov_imm(op.R0, 0)
            .exit_()
        )

    def test_map_lookup_hit(self):
        bpf_map = BpfMap(MapType.ARRAY, 4, 8, 4)
        bpf_map.update((0).to_bytes(4, "little"), (777).to_bytes(8, "little"))
        assert run(self._lookup_prog(), maps=[bpf_map]).r0 == 777

    def test_map_lookup_miss(self):
        bpf_map = BpfMap(MapType.HASH, 4, 8, 4)
        assert run(self._lookup_prog(), maps=[bpf_map]).r0 == 0

    def test_map_write_through_value_pointer(self):
        bpf_map = BpfMap(MapType.ARRAY, 4, 8, 4)
        asm = (
            Asm()
            .mov_imm(op.R8, 0)
            .stx(op.BPF_W, op.R10, op.R8, -4)
            .mov_reg(op.R2, op.R10)
            .alu64_imm(op.BPF_ADD, op.R2, -4)
            .ld_map_fd(op.R1, 0)
            .call(1)
            .jmp_imm(op.BPF_JEQ, op.R0, 0, "miss")
            .mov_imm(op.R2, 55)
            .stx(op.BPF_DW, op.R0, op.R2, 0)
            .label("miss")
            .mov_imm(op.R0, 0)
            .exit_()
        )
        run(asm, maps=[bpf_map])
        value = bpf_map.lookup((0).to_bytes(4, "little"))
        assert int.from_bytes(value, "little") == 55

    def test_ktime_helper(self):
        asm = Asm().call(5).exit_()
        result = Interpreter(time_ns=123456).run(asm.build(), b"")
        assert result.r0 == 123456

    def test_prandom_deterministic(self):
        asm = Asm().call(7).exit_()
        result = Interpreter(prandom_seq=[9, 8]).run(asm.build(), b"")
        assert result.r0 == 9

    def test_cpu_id_helper(self):
        asm = Asm().call(8).exit_()
        assert Interpreter(cpu_id=3).run(asm.build(), b"").r0 == 3

    def test_unknown_helper_faults(self):
        asm = Asm().call(12345).exit_()
        with pytest.raises(SandboxError, match="unknown helper"):
            run(asm)

    def test_helpers_clobber_r1_to_r5(self):
        asm = (
            Asm()
            .mov_imm(op.R3, 77)
            .call(5)
            .mov_reg(op.R0, op.R3)
            .exit_()
        )
        assert run(asm).r0 == 0  # clobbered to zero


# -- operation tables from the parent commit ---------------------------------
#
# How ``Interpreter.run`` dispatches an ALU or jump instruction is an
# implementation detail; what each of them computes is not.  The tables
# below were taken from the if/elif interpreter of commit a24804d
# (regenerate with ``PYTHONPATH=src python tests/test_ebpf_interpreter.py``).
# Every ALU / ALU64 operation, with an immediate and with a register
# operand, is run on every pair of edge operands and the 70 results are
# pinned as one digest; every JMP / JMP32 condition likewise, its 70
# outcomes pinned as a string of 0s and 1s.
#
# The ``ldx`` / ``st`` / ``stx`` rows and the faults from ``ctx-first-byte``
# on were added when loads and stores moved into ``run`` (PR 18) and
# taken from its parent, commit 41e6472: every access size against the
# first and last byte of the context and of the stack, one byte either
# side of them, and accesses straddling each edge.

EDGES = (0, 1, 2**31 - 1, 2**31, 2**32 - 1, 2**63, U64)
#: Right-hand operands: the edges, then shift counts at and past both
#: widths, which are also the byte-swap sizes ``END`` takes.
REG_OPERANDS = EDGES + (16, 32, 64)
#: ... and what fits an immediate, in its signed and its unsigned form.
IMM_OPERANDS = (0, 1, 2**31 - 1, 2**31, 2**32 - 1, -1, -(2**31), 16, 32, 64)

ALU_OPS = {
    "add": op.BPF_ADD, "sub": op.BPF_SUB, "mul": op.BPF_MUL, "div": op.BPF_DIV,
    "or": op.BPF_OR, "and": op.BPF_AND, "lsh": op.BPF_LSH, "rsh": op.BPF_RSH,
    "neg": op.BPF_NEG, "mod": op.BPF_MOD, "xor": op.BPF_XOR, "mov": op.BPF_MOV,
    "arsh": op.BPF_ARSH, "end": op.BPF_END,
}
JUMP_OPS = {
    "jeq": op.BPF_JEQ, "jgt": op.BPF_JGT, "jge": op.BPF_JGE, "jset": op.BPF_JSET,
    "jne": op.BPF_JNE, "jsgt": op.BPF_JSGT, "jsge": op.BPF_JSGE,
    "jlt": op.BPF_JLT, "jle": op.BPF_JLE, "jslt": op.BPF_JSLT, "jsle": op.BPF_JSLE,
}
CLASSES = {
    "alu64": op.BPF_ALU64, "alu32": op.BPF_ALU,
    "jmp": op.BPF_JMP, "jmp32": op.BPF_JMP32,
}


def _r0_after(opcode: int, left: int, right: int, from_reg: bool) -> int:
    """``r0`` after running one ALU or jump instruction on ``left`` (in
    r0 / r3) and ``right`` (in r2, or as the immediate); a jump reports
    whether it was taken."""
    exit_ = Insn(op.BPF_JMP | op.BPF_EXIT)
    operand = dict(src=op.R2) if from_reg else dict(imm=right)
    program = lddw_pair(op.R2, right if from_reg else 0)
    if opcode & op.CLASS_MASK in (op.BPF_JMP, op.BPF_JMP32):
        program += lddw_pair(op.R3, left) + [
            Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=op.R0, imm=1),
            Insn(opcode, dst=op.R3, off=1, **operand),
            Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=op.R0, imm=0),
            exit_,
        ]
    else:
        program += lddw_pair(op.R0, left) + [Insn(opcode, dst=op.R0, **operand), exit_]
    return Interpreter().run(program, b"").r0


#: What the memory rows and faults run against: 16 context bytes.
CTX = bytes(range(1, 17))
SIZES = {"b": op.BPF_B, "h": op.BPF_H, "w": op.BPF_W, "dw": op.BPF_DW}
#: area -> (register pointing at it, offset of its first byte from that
#: register, offset one past its last)
AREAS = {"ctx": (op.R1, 0, len(CTX)), "stack": (op.R10, -op.STACK_SIZE, 0)}
_PATTERN = 0x1122_3344_5566_7788


def _outcome(insns, budget=None) -> str:
    interpreter = Interpreter() if budget is None else Interpreter(insn_budget=budget)
    try:
        result = interpreter.run(insns, CTX)
    except SandboxError as fault:
        return str(fault)
    return f"r0={result.r0} after {result.insns_executed}"


def _edge_offsets(area: str, size: int) -> list[int]:
    """Offsets at which an access of ``size`` bytes touches an edge of
    ``area``: the first that fits, one byte and one whole access before
    it, the last that fits, one byte past that (straddling the end, or
    for a byte just past it), the last byte, and one past the end."""
    _reg, first, end = AREAS[area]
    return [first, first - 1, first - size, end - size, end - size + 1, end - 1, end]


def _memory_row(kind: str, size_name: str, area: str) -> str:
    """``kind`` accesses of one size at every edge of ``area``.  A load
    reports what it read (the stack holds a pattern at both ends); a
    store reports both ends of the stack read back afterwards."""
    size_bits = SIZES[size_name]
    reg = AREAS[area][0]
    top, bottom = -8, -op.STACK_SIZE
    exit_ = Insn(op.BPF_JMP | op.BPF_EXIT)
    results = []
    for offset in _edge_offsets(area, op.SIZE_BYTES[size_bits]):
        program = lddw_pair(op.R2, _PATTERN)
        if kind == "ldx":
            program += [
                Insn(op.BPF_STX | op.BPF_DW | op.BPF_MEM, dst=op.R10, src=op.R2, off=top),
                Insn(op.BPF_STX | op.BPF_DW | op.BPF_MEM, dst=op.R10, src=op.R2, off=bottom),
                Insn(op.BPF_LDX | size_bits | op.BPF_MEM, dst=op.R0, src=reg, off=offset),
                exit_,
            ]
        else:
            store = (
                Insn(op.BPF_STX | size_bits | op.BPF_MEM, dst=reg, src=op.R2, off=offset)
                if kind == "stx"
                else Insn(op.BPF_ST | size_bits | op.BPF_MEM, dst=reg, off=offset, imm=-0x1234_5679)
            )
            program += [
                store,
                Insn(op.BPF_LDX | op.BPF_DW | op.BPF_MEM, dst=op.R0, src=op.R10, off=top),
                Insn(op.BPF_LDX | op.BPF_DW | op.BPF_MEM, dst=op.R3, src=op.R10, off=bottom),
                Insn(op.BPF_ALU64 | op.BPF_XOR | op.BPF_X, dst=op.R0, src=op.R3),
                exit_,
            ]
        results.append(_outcome(program))
    return hashlib.blake2b(repr(results).encode(), digest_size=8).hexdigest()


def _row(class_name: str, op_name: str, source: str) -> str:
    if class_name in ("ldx", "st", "stx"):
        return _memory_row(class_name, op_name, source)
    from_reg = source == "x"
    operation = (ALU_OPS if class_name.startswith("alu") else JUMP_OPS)[op_name]
    opcode = CLASSES[class_name] | operation | (op.BPF_X if from_reg else op.BPF_K)
    results = [
        _r0_after(opcode, left, right, from_reg)
        for left in EDGES
        for right in (REG_OPERANDS if from_reg else IMM_OPERANDS)
    ]
    if class_name.startswith("alu"):
        return hashlib.blake2b(repr(results).encode(), digest_size=8).hexdigest()
    return "".join(map(str, results))


def _row_names():
    for class_name in CLASSES:
        ops = ALU_OPS if class_name.startswith("alu") else JUMP_OPS
        for op_name in ops:
            for source in ("k", "x"):
                yield f"{class_name}.{op_name}.{source}"
    for kind in ("ldx", "st", "stx"):
        for size_name in SIZES:
            for area in AREAS:
                yield f"{kind}.{size_name}.{area}"


OPERATIONS = {
    'alu64.add.k': 'c8a902ea1c2e5cd8',
    'alu64.add.x': 'b5ca1268f519f30a',
    'alu64.sub.k': '12d902bfcb652483',
    'alu64.sub.x': 'fc16e2aa339455eb',
    'alu64.mul.k': 'efaf0a1cf747109a',
    'alu64.mul.x': 'f571c1415260c2f8',
    'alu64.div.k': 'd91b9ebe8710bf10',
    'alu64.div.x': '849cb1163d04bcf6',
    'alu64.or.k': 'f5bdf639090e33de',
    'alu64.or.x': 'c7ce11947fbd5528',
    'alu64.and.k': '9fcf486cd911360f',
    'alu64.and.x': '5b37bad290556adb',
    'alu64.lsh.k': '03e3040159b503bb',
    'alu64.lsh.x': '1c49a040f0042cf3',
    'alu64.rsh.k': 'effe1926157657e2',
    'alu64.rsh.x': '7c29a6e392f5d235',
    'alu64.neg.k': '7330c03ab61ad742',
    'alu64.neg.x': '7330c03ab61ad742',
    'alu64.mod.k': 'd1edbf590ed2d406',
    'alu64.mod.x': 'd9a7e441fbaacf8e',
    'alu64.xor.k': '010d3347865f7b2b',
    'alu64.xor.x': 'cdcc9f02bca2513d',
    'alu64.mov.k': 'effbe7c3559736ad',
    'alu64.mov.x': 'e5f848a25ac9884a',
    'alu64.arsh.k': 'fc7653ed5b56fe03',
    'alu64.arsh.x': '24336a2791d839f2',
    'alu64.end.k': '6945d751c2465a9c',
    'alu64.end.x': '03e54b191a335afd',
    'alu32.add.k': 'b89074b3beb502ad',
    'alu32.add.x': '8dd7855e22728feb',
    'alu32.sub.k': '116c603c8214350e',
    'alu32.sub.x': '68ea98353b8a4a83',
    'alu32.mul.k': '84154f90a8ece387',
    'alu32.mul.x': '4f06b720850c97bd',
    'alu32.div.k': '2c24b3c4b07b1e3d',
    'alu32.div.x': '68196d56b5d14f92',
    'alu32.or.k': '68cb188bf83d1bf5',
    'alu32.or.x': 'ea6dbe61cd1ad979',
    'alu32.and.k': 'd17b88f9069e2bb2',
    'alu32.and.x': '1d5560646fe61b7d',
    'alu32.lsh.k': '5120344197cf52bc',
    'alu32.lsh.x': 'bd30873acfb1b2c4',
    'alu32.rsh.k': '98eabf90997328e3',
    'alu32.rsh.x': 'a4f0deb931f607d8',
    'alu32.neg.k': 'd332e6a907a37c4a',
    'alu32.neg.x': 'd332e6a907a37c4a',
    'alu32.mod.k': '907b5402a9b918c4',
    'alu32.mod.x': '08b9cf3111c86528',
    'alu32.xor.k': '68213ef7db06db05',
    'alu32.xor.x': 'c4ae76a2d49b8c0c',
    'alu32.mov.k': '18fe3fe97d055a50',
    'alu32.mov.x': 'b15f61d67ad95b02',
    'alu32.arsh.k': '45ae562f88f12b71',
    'alu32.arsh.x': '824b6dded7042ffb',
    'alu32.end.k': 'c0338bab7e4b8b33',
    'alu32.end.x': '742a01fe9e9107eb',
    'jmp.jeq.k': '1000000000010000000000100000000001000000000010000000000000000000010000',
    'jmp.jeq.x': '1000000000010000000000100000000001000000000010000000000100000000001000',
    'jmp.jgt.k': '0000000000100000000011000001111110000111111100011111111001111111101111',
    'jmp.jgt.x': '0000000000100000000011000001111110000111111100011111111001111111110111',
    'jmp.jge.k': '1000000000110000000011100001111111000111111110011111111001111111111111',
    'jmp.jge.x': '1000000000110000000011100001111111000111111110011111111101111111111111',
    'jmp.jset.k': '0000000000011011000001101101110001111000011111111100000110000111111111',
    'jmp.jset.x': '0000000000011010100001101011110001101000011110111100000110000111111111',
    'jmp.jne.k': '0111111111101111111111011111111110111111111101111111111111111111101111',
    'jmp.jne.x': '0111111111101111111111011111111110111111111101111111111011111111110111',
    'jmp.jsgt.k': '0000011000100001100011000111111110011111111101111100000000000000001000',
    'jmp.jsgt.x': '0000011000100001100011000111111110011111111101111100000000000000010000',
    'jmp.jsge.k': '1000011000110001100011100111111111011111111111111100000000000000011000',
    'jmp.jsge.x': '1000011000110001100011100111111111011111111111111100000100000000011000',
    'jmp.jlt.k': '0111111111001111111100011110000000111000000001100000000110000000000000',
    'jmp.jlt.x': '0111111111001111111100011110000000111000000001100000000010000000000000',
    'jmp.jle.k': '1111111111011111111100111110000001111000000011100000000110000000010000',
    'jmp.jle.x': '1111111111011111111100111110000001111000000011100000000110000000001000',
    'jmp.jslt.k': '0111100111001110011100011000000000100000000000000011111111111111100111',
    'jmp.jslt.x': '0111100111001110011100011000000000100000000000000011111011111111100111',
    'jmp.jsle.k': '1111100111011110011100111000000001100000000010000011111111111111110111',
    'jmp.jsle.x': '1111100111011110011100111000000001100000000010000011111111111111101111',
    'jmp32.jeq.k': '1000000000010000000000100000000001001000000011000010000000000000110000',
    'jmp32.jeq.x': '1000010000010000000000100000000001000000000010100010000100000000101000',
    'jmp32.jgt.k': '0000000000100000000011000001111110000111111100111100000000001111001111',
    'jmp32.jgt.x': '0000000000100001000011000101111110010111111101011100000000001111010111',
    'jmp32.jge.k': '1000000000110000000011100001111111001111111111111110000000001111111111',
    'jmp32.jge.x': '1000010000110001000011100101111111010111111111111110000100001111111111',
    'jmp32.jset.k': '0000000000011011000001101101110001111000011111111100000000000111111111',
    'jmp32.jset.x': '0000000000011010100001101011110001101000011110111100000000000111101111',
    'jmp32.jne.k': '0111111111101111111111011111111110110111111100111101111111111111001111',
    'jmp32.jne.x': '0111101111101111111111011111111110111111111101011101111011111111010111',
    'jmp32.jsgt.k': '0001111000100111100011011111110000000000000100100000011110000001001000',
    'jmp32.jsgt.x': '0001101000100111100011011111110000000000000100000000011010000001000000',
    'jmp32.jsge.k': '1001111000110111100011111111110001001000000111100010011110000001111000',
    'jmp32.jsge.x': '1001111000110111100011111111110001000000000110100010011110000001101000',
    'jmp32.jlt.k': '0111111111001111111100011110000000110000000000000001111111110000000000',
    'jmp32.jlt.x': '0111101111001110111100011010000000101000000000000001111011110000000000',
    'jmp32.jle.k': '1111111111011111111100111110000001111000000011000011111111110000110000',
    'jmp32.jle.x': '1111111111011110111100111010000001101000000010100011111111110000101000',
    'jmp32.jslt.k': '0110000111001000011100000000001110110111111000011101100001111110000111',
    'jmp32.jslt.x': '0110000111001000011100000000001110111111111001011101100001111110010111',
    'jmp32.jsle.k': '1110000111011000011100100000001111111111111011011111100001111110110111',
    'jmp32.jsle.x': '1110010111011000011100100000001111111111111011111111100101111110111111',
    'ldx.b.ctx': '54abb272de44b796',
    'ldx.b.stack': '091cf04a549d59fa',
    'ldx.h.ctx': '7a8b40c394ce60a9',
    'ldx.h.stack': '4eeea98ecfc893b5',
    'ldx.w.ctx': '54b5a47cfa2c5276',
    'ldx.w.stack': 'fac6f63fccdc525b',
    'ldx.dw.ctx': 'a81dbc458e81b95e',
    'ldx.dw.stack': 'b424dfdc7b00399e',
    'st.b.ctx': '393ecc33a0848451',
    'st.b.stack': '65fb6b00fa798953',
    'st.h.ctx': '8e3b40761e26442a',
    'st.h.stack': '7d0abed946eb982c',
    'st.w.ctx': '72916a91cd163524',
    'st.w.stack': '0cc51357adef5dd2',
    'st.dw.ctx': '4c83262747b2a1e0',
    'st.dw.stack': 'bfc3d3949a9b4671',
    'stx.b.ctx': '393ecc33a0848451',
    'stx.b.stack': '499f8fe7409a291f',
    'stx.h.ctx': '8e3b40761e26442a',
    'stx.h.stack': '67db2725095773bd',
    'stx.w.ctx': '72916a91cd163524',
    'stx.w.stack': '54dc6d4bab0106b3',
    'stx.dw.ctx': '4c83262747b2a1e0',
    'stx.dw.stack': 'd5158291e3c1c7ea',
}

# what goes wrong at run time -> the exact message
FAULTS = {
    'budget': 'instruction budget exhausted',
    'budget-zero': 'instruction budget exhausted',
    'budget-spent-on-exit': 'r0=0 after 2',
    'budget-one-short': 'instruction budget exhausted',
    'fall-off-end': 'pc 1 out of range',
    'jump-past-end': 'pc 6 out of range',
    'jump-before-start': 'pc -1 out of range',
    'empty-program': 'pc 0 out of range',
    'truncated-lddw': 'truncated LDDW',
    'ld-abs': 'unsupported opcode 0x20',
    'ld-imm-word': 'unsupported opcode 0x00',
    'alu-op-0xe0': 'unsupported ALU op 0xe0',
    'alu32-op-0xf0': 'unsupported ALU op 0xf0',
    'jump-op-0xe0': 'unsupported jump op 0xe0',
    'jump32-op-0xf0': 'unsupported jump op 0xf0',
    'unknown-helper': 'call to unknown helper 999',
    'jmp32-exit': 'r0=0 after 2',
    'jmp32-ja': 'r0=0 after 3',
    'exit-x': 'r0=0 after 2',
    'ctx-first-byte': 'r0=1 after 2',
    'ctx-last-byte': 'r0=16 after 2',
    'ctx-last-dword': 'r0=1157159078456920585 after 2',
    'ctx-one-past': 'bad memory access [0x10010, +1)',
    'ctx-one-before': 'bad memory access [0xffff, +1)',
    'ctx-straddles-end': 'bad memory access [0x10009, +8)',
    'ctx-straddles-start': 'bad memory access [0xffff, +2)',
    'ctx-stx': 'ctx is read-only',
    'ctx-st-last-byte': 'ctx is read-only',
    'ctx-st-one-past': 'bad memory access [0x10010, +1)',
    'ctx-stx-straddles-end': 'bad memory access [0x1000d, +4)',
    'stack-first-byte': 'r0=7 after 3',
    'stack-last-byte': 'r0=7 after 3',
    'stack-st-sign-extends': 'r0=18446744073709551614 after 3',
    'stack-stx-truncates': 'r0=65535 after 4',
    'stack-one-past': 'bad memory access [0x20000, +1)',
    'stack-one-before': 'bad memory access [0x1fdff, +1)',
    'stack-stx-straddles-top': 'bad memory access [0x1fffc, +8)',
    'stack-st-straddles-bottom': 'bad memory access [0x1fdfe, +4)',
    'between-ctx-and-stack': 'bad memory access [0x14000, +1)',
    'address-zero': 'bad memory access [0x0, +4)',
    'address-top-of-space': 'bad memory access [0xffffffffffffffff, +8)',
    'address-wraps': 'bad memory access [0x7ffe, +1)',
}


def _fault_programs():
    mov = Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=op.R0, imm=0)
    exit_ = Insn(op.BPF_JMP | op.BPF_EXIT)
    return {
        "budget": ([Insn(op.BPF_JMP | op.BPF_JA, off=-1)], 1000),
        "budget-zero": ([mov, exit_], 0),
        "budget-spent-on-exit": ([mov, exit_], 2),
        "budget-one-short": ([mov, exit_], 1),
        "fall-off-end": ([mov], None),
        "jump-past-end": ([Insn(op.BPF_JMP | op.BPF_JA, off=5), exit_], None),
        "jump-before-start": ([Insn(op.BPF_JMP | op.BPF_JA, off=-2), exit_], None),
        "empty-program": ([], None),
        "truncated-lddw": ([mov, Insn(op.LDDW, dst=op.R0, imm=1)], None),
        "ld-abs": ([Insn(op.BPF_LD | op.BPF_ABS | op.BPF_W), exit_], None),
        "ld-imm-word": ([Insn(op.BPF_LD | op.BPF_IMM | op.BPF_W), exit_], None),
        "alu-op-0xe0": ([Insn(op.BPF_ALU64 | 0xE0, dst=op.R0), exit_], None),
        "alu32-op-0xf0": ([Insn(op.BPF_ALU | 0xF0 | op.BPF_X, dst=op.R0), exit_], None),
        "jump-op-0xe0": ([Insn(op.BPF_JMP | 0xE0, dst=op.R1), exit_], None),
        "jump32-op-0xf0": ([Insn(op.BPF_JMP32 | 0xF0, dst=op.R1), exit_], None),
        "unknown-helper": ([Insn(op.BPF_JMP | op.BPF_CALL, imm=999), exit_], None),
        "jmp32-exit": ([mov, Insn(op.BPF_JMP32 | op.BPF_EXIT)], None),
        "jmp32-ja": ([mov, Insn(op.BPF_JMP32 | op.BPF_JA, off=1), exit_, exit_], None),
        "exit-x": ([mov, Insn(op.BPF_JMP | op.BPF_EXIT | op.BPF_X)], None),
        **{name: (insns + [exit_], None) for name, insns in _memory_faults().items()},
    }


def _memory_faults():
    def ldx(size, src, off):
        return Insn(op.BPF_LDX | size | op.BPF_MEM, dst=op.R0, src=src, off=off)

    def stx(size, dst, off, src=op.R1):
        return Insn(op.BPF_STX | size | op.BPF_MEM, dst=dst, src=src, off=off)

    def st(size, dst, off, imm=7):
        return Insn(op.BPF_ST | size | op.BPF_MEM, dst=dst, off=off, imm=imm)

    minus_one = Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=op.R2, imm=-1)
    return {
        "ctx-first-byte": [ldx(op.BPF_B, op.R1, 0)],
        "ctx-last-byte": [ldx(op.BPF_B, op.R1, 15)],
        "ctx-last-dword": [ldx(op.BPF_DW, op.R1, 8)],
        "ctx-one-past": [ldx(op.BPF_B, op.R1, 16)],
        "ctx-one-before": [ldx(op.BPF_B, op.R1, -1)],
        "ctx-straddles-end": [ldx(op.BPF_DW, op.R1, 9)],
        "ctx-straddles-start": [ldx(op.BPF_H, op.R1, -1)],
        "ctx-stx": [stx(op.BPF_B, op.R1, 0)],
        "ctx-st-last-byte": [st(op.BPF_B, op.R1, 15)],
        "ctx-st-one-past": [st(op.BPF_B, op.R1, 16)],
        "ctx-stx-straddles-end": [stx(op.BPF_W, op.R1, 13)],
        "stack-first-byte": [st(op.BPF_B, op.R10, -512), ldx(op.BPF_B, op.R10, -512)],
        "stack-last-byte": [st(op.BPF_B, op.R10, -1), ldx(op.BPF_B, op.R10, -1)],
        "stack-st-sign-extends": [
            st(op.BPF_DW, op.R10, -8, imm=-2), ldx(op.BPF_DW, op.R10, -8),
        ],
        "stack-stx-truncates": [
            minus_one, stx(op.BPF_H, op.R10, -8, src=op.R2), ldx(op.BPF_DW, op.R10, -8),
        ],
        "stack-one-past": [ldx(op.BPF_B, op.R10, 0)],
        "stack-one-before": [ldx(op.BPF_B, op.R10, -513)],
        "stack-stx-straddles-top": [stx(op.BPF_DW, op.R10, -4)],
        "stack-st-straddles-bottom": [st(op.BPF_W, op.R10, -514)],
        "between-ctx-and-stack": [ldx(op.BPF_B, op.R1, 0x4000)],
        "address-zero": [
            Insn(op.BPF_ALU64 | op.BPF_MOV | op.BPF_K, dst=op.R2), ldx(op.BPF_W, op.R2, 0),
        ],
        "address-top-of-space": [minus_one, ldx(op.BPF_DW, op.R2, 0)],
        "address-wraps": [minus_one, st(op.BPF_B, op.R2, 0x7FFF)],
    }


def _fault(name: str) -> str:
    return _outcome(*_fault_programs()[name])


class TestParentTables:
    def test_tables_cover_every_operation(self):
        assert list(OPERATIONS) == list(_row_names())
        assert list(FAULTS) == list(_fault_programs())

    @pytest.mark.parametrize("name", OPERATIONS)
    def test_operation_is_pinned(self, name):
        assert _row(*name.split(".")) == OPERATIONS[name]

    @pytest.mark.parametrize("name", FAULTS)
    def test_fault_is_pinned(self, name):
        assert _fault(name) == FAULTS[name]

    def test_decoded_tuples_run_like_insns(self):
        """``run`` takes the decoder's plain tuples and the program
        side's ``Insn`` alike."""
        from repro.ebpf.stress import make_stress_program

        program = make_stress_program(300, seed=3)
        ctx = bytes(range(256))
        as_insns = Interpreter().run(program.insns, ctx)
        as_tuples = Interpreter().run([tuple(i) for i in program.insns], ctx)
        assert as_tuples == as_insns


if __name__ == "__main__":
    print("OPERATIONS = {")
    for row_name in _row_names():
        print(f"    {row_name!r}: {_row(*row_name.split('.'))!r},")
    print("}\n\nFAULTS = {")
    for fault_name in _fault_programs():
        print(f"    {fault_name!r}: {_fault(fault_name)!r},")
    print("}")

"""Property-based differential tests over randomly generated programs.

Strategy-generated programs are safe by construction (the generators
track initialized registers / stack slots / stack depth), so they must
(a) pass the static verifier, (b) survive the JIT -> link -> decode
round trip byte-exactly in behaviour, and (c) compute identical
results through every execution route.
"""

from hypothesis import given, settings, strategies as st

from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.insn import decode_program, encode_program
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.jit import decode_image, jit_compile
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import verify
from repro.wasm.compiler import decode_wasm_image, wasm_compile
from repro.wasm.module import WasmBuilder, WOp
from repro.wasm.runtime import RequestContext, WasmRuntime
from repro.wasm.validator import wasm_validate

# ---------------------------------------------------------------------
# Random eBPF programs
# ---------------------------------------------------------------------

_SAFE_ALU = (
    op.BPF_ADD, op.BPF_SUB, op.BPF_MUL, op.BPF_OR, op.BPF_AND,
    op.BPF_XOR, op.BPF_RSH,
)


@st.composite
def ebpf_programs(draw):
    """Generate a safe program over scalar regs r0, r2..r5 + ctx loads."""
    asm = Asm()
    # Initialize the working registers.
    regs = [op.R0, op.R2, op.R3, op.R4, op.R5]
    for index, reg in enumerate(regs):
        asm.mov_imm(reg, draw(st.integers(0, 1 << 20)) + index)

    n_ops = draw(st.integers(1, 30))
    label_counter = 0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["alu_imm", "alu_reg", "ctx", "stack",
                                     "branch"]))
        dst = draw(st.sampled_from(regs))
        if kind == "alu_imm":
            alu = draw(st.sampled_from(_SAFE_ALU))
            imm = draw(st.integers(0, 63 if alu == op.BPF_RSH else (1 << 20)))
            asm.alu64_imm(alu, dst, imm)
        elif kind == "alu_reg":
            alu = draw(st.sampled_from(_SAFE_ALU[:6]))  # no reg shifts
            src = draw(st.sampled_from(regs))
            asm.alu64_reg(alu, dst, src)
        elif kind == "ctx":
            offset = draw(st.integers(0, 255))
            asm.ldx_b(dst, op.R1, offset)
        elif kind == "stack":
            slot = draw(st.sampled_from([-8, -16, -24, -32]))
            asm.stx_dw(op.R10, dst, slot)
            asm.ldx_dw(draw(st.sampled_from(regs)), op.R10, slot)
        else:  # branch over one op
            label_counter += 1
            label = f"b{label_counter}"
            jmp = draw(st.sampled_from([op.BPF_JEQ, op.BPF_JGT, op.BPF_JLE]))
            asm.jmp_imm(jmp, dst, draw(st.integers(0, 1 << 16)), label)
            asm.alu64_imm(op.BPF_ADD, dst, 1)
            asm.label(label)
    asm.mov_reg(op.R0, draw(st.sampled_from(regs)))
    asm.exit_()
    return BpfProgram(asm.build(), name="hyp")


class TestEbpfDifferential:
    @given(ebpf_programs(), st.binary(min_size=256, max_size=256))
    @settings(max_examples=80, deadline=None)
    def test_verifies_and_roundtrips(self, program, ctx):
        stats = verify(program)
        assert stats.insn_count == len(program.insns)

        direct = Interpreter().run(program.insns, ctx)

        for arch in ("x86_64", "arm64"):
            binary = jit_compile(program, arch=arch)
            assert binary.is_linked  # no external refs by construction
            insns = decode_image(
                binary.code, lambda a: None, lambda a: None, expect_arch=arch
            )
            via_jit = Interpreter().run(insns, ctx)
            assert via_jit.r0 == direct.r0
            assert via_jit.insns_executed == direct.insns_executed

    @given(ebpf_programs(), st.integers(0, (1 << 64) - 1))
    @settings(max_examples=60, deadline=None)
    def test_decode_returns_the_program(self, program, literal):
        """encode -> JIT -> link -> decode_image gives back ``program.insns``.

        The generated body is extended with the three shapes that do not
        survive as plain slots: a 64-bit literal, a helper call and a map
        reference (the last two leave the JIT as placeholders and come
        back through the reverse GOT).
        """
        asm = Asm()
        for insn in program.insns[:-1]:
            asm.raw(insn)
        asm.lddw(op.R3, literal).call(5).ld_map_fd(op.R1, 0).exit_()
        program = BpfProgram(asm.build(), name="hyp", map_names=("m0",))
        # Decoding yields immediates in their signed 32-bit form; that
        # aside, ``expected`` is ``program.insns``.
        expected = decode_program(program.image())
        assert encode_program(expected) == encode_program(program.insns)

        addresses = {"bpf_ktime_get_ns": 0xFFFF_0000_0000_1140, "m0": 0x7000_2000}
        for arch in ("x86_64", "arm64"):
            binary = jit_compile(program, arch=arch)
            assert not binary.is_linked
            linked = binary.link(lambda reloc: addresses[reloc.symbol])
            insns = decode_image(
                linked.code,
                helper_at={addresses["bpf_ktime_get_ns"]: 5}.get,
                map_slot_at={addresses["m0"]: 0}.get,
                expect_arch=arch,
            )
            assert insns == expected

    @given(ebpf_programs())
    @settings(max_examples=40, deadline=None)
    def test_image_bytes_deterministic(self, program):
        assert jit_compile(program).code == jit_compile(program).code

    @given(ebpf_programs(), st.integers(8, 2000), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_any_single_byte_corruption_detected(self, program, pos, bit):
        """Flipping any bit anywhere in the image must be detected."""
        import pytest
        from repro.errors import SandboxCrash

        binary = jit_compile(program)
        image = bytearray(binary.code)
        index = pos % len(image)
        image[index] ^= 1 << bit
        with pytest.raises(SandboxCrash):
            decode_image(bytes(image), lambda a: None, lambda a: None)


# ---------------------------------------------------------------------
# Random Wasm modules
# ---------------------------------------------------------------------

_WASM_ALU = (WOp.ADD, WOp.SUB, WOp.MUL, WOp.AND, WOp.OR, WOp.XOR,
             WOp.EQ, WOp.NE, WOp.LT_U, WOp.GT_U)


@st.composite
def wasm_modules(draw):
    """Generate a stack-safe module using args + locals + branches."""
    builder = WasmBuilder(name="hyp", n_locals=4)
    depth = 0
    n_ops = draw(st.integers(1, 40))
    label_counter = 0
    for _ in range(n_ops):
        choices = ["push", "local"]
        if depth >= 1:
            choices += ["dup", "set_local", "branch"]
        if depth >= 2:
            choices += ["alu", "drop"]
        kind = draw(st.sampled_from(choices))
        if kind == "push":
            builder.push(draw(st.integers(0, 1 << 30)))
            depth += 1
        elif kind == "local":
            builder.get_local(draw(st.integers(0, 1)))  # arg locals
            depth += 1
        elif kind == "dup":
            builder.emit(WOp.DUP)
            depth += 1
        elif kind == "set_local":
            builder.set_local(draw(st.integers(0, 1)))
            depth -= 1
        elif kind == "alu":
            builder.alu(draw(st.sampled_from(_WASM_ALU)))
            depth -= 1
        elif kind == "drop":
            builder.emit(WOp.DROP)
            depth -= 1
        else:  # branch over a push/drop pair (stack-neutral)
            label_counter += 1
            label = f"L{label_counter}"
            builder.br_if(label)
            depth -= 1
            builder.push(draw(st.integers(0, 100)))
            builder.emit(WOp.DROP)
            builder.label(label)
        if depth > 48:
            builder.emit(WOp.DROP)
            depth -= 1
    while depth > 1:
        builder.emit(WOp.DROP)
        depth -= 1
    if depth == 0:
        builder.push(0)
    builder.ret()
    return builder.build()


class TestWasmDifferential:
    @given(
        wasm_modules(),
        st.tuples(st.integers(0, 1 << 30), st.integers(0, 1 << 30)),
    )
    @settings(max_examples=80, deadline=None)
    def test_validates_and_roundtrips(self, module, args):
        wasm_validate(module)
        direct = WasmRuntime().run(module.insns, RequestContext(), args=args)
        binary = wasm_compile(module)
        instrs = decode_wasm_image(binary.code, host_call_at=lambda a: None)
        via = WasmRuntime().run(instrs, RequestContext(), args=args)
        assert via.value == direct.value
        assert via.insns_executed == direct.insns_executed

    @given(wasm_modules())
    @settings(max_examples=40, deadline=None)
    def test_arch_images_differ_but_agree(self, module):
        x86 = wasm_compile(module, arch="x86_64")
        arm = wasm_compile(module, arch="arm64")
        assert x86.code != arm.code
        a = decode_wasm_image(x86.code, lambda a: None, expect_arch="x86_64")
        b = decode_wasm_image(arm.code, lambda a: None, expect_arch="arm64")
        assert a == b

"""Wasm substrate tests: module, validator, runtime, compiler, filters."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import JitError, ReproError, SandboxCrash, SandboxError, VerifierError
from repro.wasm.compiler import decode_wasm_image, wasm_compile
from repro.wasm.filters import (
    VERSION_HEADER_KEY,
    make_header_filter,
    make_rate_limit_filter,
    make_routing_filter,
    make_telemetry_filter,
)
from repro.wasm.hostcalls import HOST_CALLS
from repro.wasm.module import WInstr, WOp, WasmBuilder
from repro.wasm.runtime import CONTINUE, DENY, RequestContext, WasmRuntime
from repro.wasm.validator import wasm_validate

HOSTCALL_ADDR = {hc.name: 0xBB00_0000 + hc.call_id * 0x40 for hc in HOST_CALLS.values()}
ADDR_TO_ID = {addr: next(h.call_id for h in HOST_CALLS.values() if h.name == name)
              for name, addr in HOSTCALL_ADDR.items()}


def run_module(module, ctx=None, args=()):
    return WasmRuntime().run(module.insns, ctx or RequestContext(), args=args)


class TestModuleEncoding:
    @given(
        st.sampled_from(list(WOp)),
        st.integers(0, 0xFFFF),
        st.integers(-(2**31), 2**31 - 1),
    )
    def test_instr_roundtrip(self, wop, aux, imm):
        instr = WInstr(op=wop, aux=aux, imm=imm)
        assert WInstr.decode(instr.encode()) == instr

    def test_bad_opcode_rejected(self):
        with pytest.raises(ReproError):
            WInstr.decode(b"\xf9" + bytes(7))

    def test_tag_changes_with_body(self):
        a = WasmBuilder().push(1).ret().build()
        b = WasmBuilder().push(2).ret().build()
        assert a.tag() != b.tag()

    def test_builder_label_errors(self):
        with pytest.raises(ReproError):
            WasmBuilder().label("x").label("x")
        with pytest.raises(ReproError):
            WasmBuilder().br("nowhere").ret().build()

    def test_unknown_host_call_rejected_by_builder(self):
        with pytest.raises(ReproError):
            WasmBuilder().call_host("no_such_call")


class TestValidator:
    def test_minimal_accepts(self):
        module = WasmBuilder().push(0).ret().build()
        stats = wasm_validate(module)
        assert stats.insn_count == 2

    def test_empty_rejected(self):
        from repro.wasm.module import WasmModule

        with pytest.raises(VerifierError, match="empty"):
            wasm_validate(WasmModule(insns=[]))

    def test_stack_underflow_rejected(self):
        module = WasmBuilder().emit(WOp.DROP).push(0).ret().build()
        with pytest.raises(VerifierError, match="underflow"):
            wasm_validate(module)

    def test_return_needs_exactly_one_value(self):
        module = WasmBuilder().push(1).push(2).ret().build()
        with pytest.raises(VerifierError, match="depth"):
            wasm_validate(module)

    def test_missing_return_rejected(self):
        module = WasmBuilder().push(1).emit(WOp.DROP).build()
        with pytest.raises(VerifierError, match="fallthrough"):
            wasm_validate(module)

    def test_backward_branch_rejected(self):
        builder = WasmBuilder().label("top").push(1).emit(WOp.DROP)
        builder._fixups.append((len(builder._insns), "top"))
        builder.emit(WOp.BR)
        builder.push(0).ret()
        with pytest.raises(VerifierError, match="backward"):
            wasm_validate(builder.build())

    def test_uninitialized_local_rejected(self):
        module = WasmBuilder(n_locals=8).get_local(5).ret().build()
        with pytest.raises(VerifierError, match="uninitialized local"):
            wasm_validate(module)

    def test_arg_locals_preinitialized(self):
        module = WasmBuilder(n_locals=4).get_local(0).ret().build()
        wasm_validate(module)

    def test_local_out_of_range(self):
        module = WasmBuilder(n_locals=2).push(1).set_local(5).push(0).ret().build()
        with pytest.raises(VerifierError, match="out of range"):
            wasm_validate(module)

    def test_host_call_arity_checked(self):
        # proxy_set_header needs 2 args; give it 1.
        builder = WasmBuilder().push(1)
        builder._imports.append("proxy_set_header")
        builder.emit(WOp.CALL_HOST, imm=2).ret()
        with pytest.raises(VerifierError, match="underflow"):
            wasm_validate(builder.build())

    def test_unimported_host_call_rejected(self):
        builder = WasmBuilder().push(1)
        builder.emit(WOp.CALL_HOST, imm=5).ret()  # proxy_log, not imported
        with pytest.raises(VerifierError, match="not imported"):
            wasm_validate(builder.build())

    def test_unreachable_rejected(self):
        module = WasmBuilder().push(0).ret().push(1).ret().build()
        with pytest.raises(VerifierError, match="unreachable"):
            wasm_validate(module)

    def test_inconsistent_branch_depths_ok_when_merged(self):
        module = (
            WasmBuilder()
            .push(1)
            .br_if("other")
            .push(10)
            .ret()
            .label("other")
            .push(20)
            .ret()
            .build()
        )
        wasm_validate(module)


class TestRuntime:
    def test_arithmetic(self):
        module = WasmBuilder().push(6).push(7).alu(WOp.MUL).ret().build()
        assert run_module(module).value == 42

    def test_division_by_zero_yields_zero(self):
        module = WasmBuilder().push(5).push(0).alu(WOp.DIV_U).ret().build()
        assert run_module(module).value == 0

    def test_locals_and_args(self):
        module = (
            WasmBuilder()
            .get_local(0)
            .get_local(1)
            .alu(WOp.ADD)
            .ret()
            .build()
        )
        assert run_module(module, args=(30, 12)).value == 42

    def test_branching(self):
        module = (
            WasmBuilder()
            .get_local(0)
            .push(10)
            .alu(WOp.GT_U)
            .br_if("big")
            .push(0)
            .ret()
            .label("big")
            .push(1)
            .ret()
            .build()
        )
        assert run_module(module, args=(5,)).value == 0
        assert run_module(module, args=(50,)).value == 1

    def test_host_call_effects(self):
        module = make_header_filter(version=3)
        ctx = RequestContext()
        result = run_module(module, ctx)
        assert result.value == CONTINUE
        assert ctx.headers[VERSION_HEADER_KEY] == 3

    def test_budget(self):
        module = WasmBuilder().push(0).ret().build()
        with pytest.raises(SandboxError, match="budget"):
            WasmRuntime(insn_budget=1).run(module.insns, RequestContext())

    def test_32bit_wrapping(self):
        module = (
            WasmBuilder().push(0x7FFFFFFF).push(0x7FFFFFFF).alu(WOp.ADD)
            .ret().build()
        )
        assert run_module(module).value == (0x7FFFFFFF * 2) & 0xFFFFFFFF


class TestFilters:
    def test_routing_filter(self):
        module = make_routing_filter(n_routes=4, version=1)
        ctx = RequestContext(path_hash=9)
        run_module(module, ctx)
        assert ctx.route == (9 + 1) % 4

    def test_rate_limit_filter(self):
        module = make_rate_limit_filter(limit=3)
        ctx = RequestContext()
        verdicts = [run_module(module, ctx).value for _ in range(5)]
        assert verdicts == [CONTINUE] * 3 + [DENY] * 2

    def test_telemetry_filter(self):
        module = make_telemetry_filter(counter_slot=2)
        ctx = RequestContext()
        run_module(module, ctx)
        run_module(module, ctx)
        assert ctx.counters[2] == 2
        assert ctx.log == [1, 2]

    def test_padding_changes_size_not_behaviour(self):
        small = make_header_filter(version=2)
        big = make_header_filter(version=2, padding=100)
        assert len(big.insns) == len(small.insns) + 200
        ctx_a, ctx_b = RequestContext(), RequestContext()
        assert run_module(small, ctx_a).value == run_module(big, ctx_b).value
        assert ctx_a.headers == ctx_b.headers


# What ``wasm_compile`` wrote before it shared the slot writer of
# ``ebpf.jit`` (per-slot emitter of commit 41e6472; regenerate with
# ``PYTHONPATH=src python tests/test_wasm.py``): sha256 of the image and
# the relocation list, or the error.
COMPILED = {
    'header': ('2e2d0b5079aeb059', ((39, 'helper', 'proxy_set_header'),)),
    'header-arm64': ('eccb9e97453e4e47', ((39, 'helper', 'proxy_set_header'),)),
    'header-padded': ('cda3ec842a04b92c', ((39, 'helper', 'proxy_set_header'),)),
    'routing': ('715b9946b7032f22', ((19, 'helper', 'proxy_get_path_hash'), (79, 'helper', 'proxy_set_route'), (129, 'helper', 'proxy_set_header'))),
    'routing-arm64': ('3aa4ca13652dc64b', ((19, 'helper', 'proxy_get_path_hash'), (79, 'helper', 'proxy_set_route'), (129, 'helper', 'proxy_set_header'))),
    'rate-limit': ('5f6c98a24b91742f', ((29, 'helper', 'proxy_counter_incr'), (99, 'helper', 'proxy_set_header'))),
    'telemetry': ('433db7d2494f4a16', ((29, 'helper', 'proxy_counter_incr'), (49, 'helper', 'proxy_log'), (99, 'helper', 'proxy_set_header'))),
    'udf-add': ('cad5cae9174ce657', ()),
    'udf-clamp': ('0fe9bc83af800539', ()),
    'host-call-last': ('e35031633be4284a', ((29, 'helper', 'proxy_get_header'),)),
    'empty': ('0aac033aec0daba1', ()),
    'unknown-host-call': 'unknown host call id 999',
    'unknown-target': "unsupported wasm target 'mips'",
    'unknown-target-wins': "unsupported wasm target 'mips'",
}


def _compiled_modules():
    from repro.udf.compiler import compile_udf
    from repro.udf.expr import Arg, BinOp, Call, Const
    from repro.wasm.module import WasmModule

    clamp = Call("clamp", Arg(0), Const(10), Const(20))
    return {
        "header": (make_header_filter(), "x86_64"),
        "header-arm64": (make_header_filter(), "arm64"),
        "header-padded": (make_header_filter(version=3, padding=50), "x86_64"),
        "routing": (make_routing_filter(n_routes=3, version=2), "x86_64"),
        "routing-arm64": (make_routing_filter(n_routes=3, version=2), "arm64"),
        "rate-limit": (make_rate_limit_filter(limit=5), "x86_64"),
        "telemetry": (make_telemetry_filter(), "x86_64"),
        "udf-add": (compile_udf(BinOp("+", Arg(0), Const(5)), row_width=4), "x86_64"),
        "udf-clamp": (compile_udf(clamp, row_width=2), "arm64"),
        "host-call-last": (
            WasmModule([WInstr(WOp.PUSH, imm=1), WInstr(WOp.CALL_HOST, imm=1)]),
            "x86_64",
        ),
        "empty": (WasmModule([]), "x86_64"),
        "unknown-host-call": (
            WasmModule([WInstr(WOp.CALL_HOST, imm=1), WInstr(WOp.CALL_HOST, imm=999)]),
            "x86_64",
        ),
        "unknown-target": (make_header_filter(), "mips"),
        "unknown-target-wins": (WasmModule([WInstr(WOp.CALL_HOST, imm=999)]), "mips"),
    }


def _compiled(module, arch):
    import hashlib

    try:
        binary = wasm_compile(module, arch=arch)
    except JitError as error:
        return str(error)
    assert binary.arch == arch and binary.insn_cnt == len(module.insns)
    assert binary.symbols == {
        symbol: [r.offset for r in binary.relocations if r.symbol == symbol]
        for symbol in dict.fromkeys(r.symbol for r in binary.relocations)
    }
    return (
        hashlib.sha256(binary.code).hexdigest()[:16],
        tuple((r.offset, r.kind.value, r.symbol) for r in binary.relocations),
    )


class TestCompiler:
    @pytest.mark.parametrize("name", _compiled_modules())
    def test_image_is_pinned(self, name):
        assert _compiled(*_compiled_modules()[name]) == COMPILED[name]

    def test_roundtrip(self):
        module = make_routing_filter(n_routes=3, version=2)
        linked = wasm_compile(module).link(lambda r: HOSTCALL_ADDR[r.symbol])
        instrs = decode_wasm_image(linked.code, host_call_at=ADDR_TO_ID.get)
        ctx_direct, ctx_jit = RequestContext(path_hash=7), RequestContext(path_hash=7)
        direct = WasmRuntime().run(module.insns, ctx_direct)
        via = WasmRuntime().run(instrs, ctx_jit)
        assert direct.value == via.value
        assert ctx_direct.route == ctx_jit.route

    def test_unlinked_crashes(self):
        binary = wasm_compile(make_header_filter())
        with pytest.raises(SandboxCrash, match="unresolved"):
            decode_wasm_image(binary.code, host_call_at=ADDR_TO_ID.get)

    def test_corruption_crashes(self):
        linked = wasm_compile(make_header_filter()).link(
            lambda r: HOSTCALL_ADDR[r.symbol]
        )
        corrupt = bytearray(linked.code)
        corrupt[15] ^= 0x80
        with pytest.raises(SandboxCrash):
            decode_wasm_image(bytes(corrupt), host_call_at=ADDR_TO_ID.get)

    def test_bad_slot_checksum_names_the_first_bad_slot(self):
        """An image whose CRC holds but whose slots do not: the shared
        lane check of ``ebpf.jit`` finds the slot, the message is the
        wasm decoder's own."""
        import zlib

        linked = wasm_compile(make_header_filter()).link(
            lambda r: HOSTCALL_ADDR[r.symbol]
        )
        corrupt = bytearray(linked.code)
        for slot in (5, 2):
            corrupt[8 + slot * 10 + 4] ^= 0x01
        corrupt[-4:] = zlib.crc32(bytes(corrupt[:-4])).to_bytes(4, "little")
        with pytest.raises(SandboxCrash) as crash:
            decode_wasm_image(bytes(corrupt), host_call_at=ADDR_TO_ID.get)
        assert str(crash.value) == "wasm slot 2 checksum mismatch"

    def test_ebpf_image_rejected_as_wasm(self):
        from repro.ebpf.jit import jit_compile
        from repro.ebpf.asm import Asm
        from repro.ebpf import opcodes as op
        from repro.ebpf.program import BpfProgram

        ebpf = jit_compile(BpfProgram(Asm().mov_imm(op.R0, 0).exit_().build()))
        with pytest.raises(SandboxCrash, match="not a wasm image"):
            decode_wasm_image(ebpf.code, host_call_at=ADDR_TO_ID.get)

    def test_arch_mismatch(self):
        binary = wasm_compile(make_header_filter(), arch="arm64")
        linked = binary.link(lambda r: HOSTCALL_ADDR[r.symbol])
        with pytest.raises(SandboxCrash, match="mismatch"):
            decode_wasm_image(
                linked.code, host_call_at=ADDR_TO_ID.get, expect_arch="x86_64"
            )

    def test_unknown_arch_rejected(self):
        with pytest.raises(JitError):
            wasm_compile(make_header_filter(), arch="mips")


if __name__ == "__main__":
    print("COMPILED = {")
    for row_name, row in _compiled_modules().items():
        print(f"    {row_name!r}: {_compiled(*row)!r},")
    print("}")

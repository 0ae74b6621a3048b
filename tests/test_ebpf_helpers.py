"""Every helper, verified and run: in the interpreter, and again after
``jit_compile`` -> ``link`` -> ``decode_image``.

One program per entry of ``HELPERS``, each asserting its ``r0`` and
what it did to its map or its trace buffer, so no helper's runtime side
(``Interpreter.map_update`` and the rest) goes unexercised.
"""

import pytest

from repro.errors import SandboxError
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import HELPERS
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.jit import RelocKind, decode_image, jit_compile
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.program import BpfProgram
from repro.ebpf.verifier import MapGeometry, verify
from tests.test_jit_oracle import _HELPER_ADDRESS, _HELPER_AT

U64 = (1 << 64) - 1
KEY = (0).to_bytes(4, "little")
GEOMETRY = {0: MapGeometry(key_size=4, value_size=8)}
MAP_ADDRESS = 0x7000_0000


def _key(asm: Asm) -> Asm:
    """Key 0 at fp-4, ``r1`` the map, ``r2`` pointing at the key."""
    return (
        asm.st_imm(op.BPF_W, op.R10, -4, 0)
        .mov_reg(op.R2, op.R10)
        .alu64_imm(op.BPF_ADD, op.R2, -4)
        .ld_map_fd(op.R1, 0)
    )


def _lookup() -> Asm:
    return (
        _key(Asm()).call(1).jmp_imm(op.BPF_JEQ, op.R0, 0, "miss")
        .ldx_dw(op.R0, op.R0, 0).exit_()
        .label("miss").mov_imm(op.R0, 1).exit_()
    )


def _update() -> Asm:
    return (
        _key(Asm()).mov_imm(op.R7, 0x1234).stx_dw(op.R10, op.R7, -16)
        .mov_reg(op.R3, op.R10).alu64_imm(op.BPF_ADD, op.R3, -16)
        .mov_imm(op.R4, 0)  # BPF_ANY
        .call(2).exit_()
    )


def _delete_twice() -> Asm:
    """The second delete finds nothing: ``r0`` is -ENOENT."""
    return _key(_key(Asm()).call(3)).call(3).exit_()


def _trace_printk(size: int = 8) -> Asm:
    return (
        Asm().lddw(op.R7, int.from_bytes(b"hello\0\0\0", "little"))
        .stx_dw(op.R10, op.R7, -8)
        .mov_reg(op.R1, op.R10).alu64_imm(op.BPF_ADD, op.R1, -8)
        .mov_imm(op.R2, size).call(6).exit_()
    )


def _value(number: int) -> bytes:
    return number.to_bytes(8, "little")


# helper id -> (program, map before, interpreter arguments, r0, map after,
# trace lines); a map of None means the program uses none.
PROGRAMS = {
    1: (_lookup(), {KEY: _value(777)}, {}, 777, {KEY: _value(777)}, []),
    2: (_update(), {}, {}, 0, {KEY: _value(0x1234)}, []),
    3: (_delete_twice(), {KEY: _value(777)}, {}, -2 & U64, {}, []),
    5: (Asm().call(5).exit_(), None, {"time_ns": 123_456}, 123_456, None, []),
    6: (_trace_printk(), None, {}, 8, None, ["hello"]),
    7: (Asm().call(7).exit_(), None, {"prandom_seq": [0xABCD]}, 0xABCD, None, []),
    8: (Asm().call(8).exit_(), None, {"cpu_id": 3}, 3, None, []),
}


def _run(insns, before, arguments):
    """``(r0, map contents after, trace lines)`` of one run."""
    maps = []
    if before is not None:
        bpf_map = BpfMap(MapType.HASH, 4, 8, 4, name="m")
        for key, value in before.items():
            bpf_map.update(key, value)
        maps.append(bpf_map)
    result = Interpreter(maps=maps, **arguments).run(insns, bytes(64))
    after = {key: maps[0].lookup(key) for key in maps[0].keys()} if maps else None
    return result.r0, after, result.printk_lines


def test_every_helper_has_a_program():
    assert sorted(PROGRAMS) == sorted(HELPERS)


@pytest.mark.parametrize("helper_id", sorted(PROGRAMS))
def test_helper_runs_before_and_after_the_jit(helper_id):
    asm, before, arguments, r0, after, lines = PROGRAMS[helper_id]
    uses_map = before is not None
    program = BpfProgram(asm.build(), map_names=("m",) if uses_map else ())
    name = HELPERS[helper_id].name
    stats = verify(program, maps=GEOMETRY if uses_map else {}, ctx_size=64)
    assert stats.helpers_called == (name,)

    binary = jit_compile(program)
    helpers = {r.symbol for r in binary.relocations if r.kind is RelocKind.HELPER}
    assert helpers == {name}
    linked = binary.link(
        lambda reloc: MAP_ADDRESS if reloc.kind is RelocKind.MAP
        else _HELPER_ADDRESS[reloc.symbol]
    )
    decoded = decode_image(linked.code, _HELPER_AT, {MAP_ADDRESS: 0}.get)

    expected = (r0, after, lines)
    assert _run(program.insns, before, arguments) == expected
    assert _run(decoded, before, arguments) == expected


def test_trace_printk_size_is_unbounded_known_hole():
    """Known hole: the verifier tracks no scalar values, so it checks
    one stack byte under ``bpf_trace_printk``'s pointer and cannot
    bound its size.  Eight bytes stored, nine asked for: verified, then
    a fault at run time."""
    program = BpfProgram(_trace_printk(size=9).build())
    assert verify(program).helpers_called == ("bpf_trace_printk",)
    with pytest.raises(SandboxError) as caught:
        Interpreter().run(program.insns, bytes(64))
    assert str(caught.value) == "bad memory access [0x1fff8, +9)"

"""JIT emit equivalence oracle.

How :func:`repro.ebpf.jit.jit_compile` writes an image is an
implementation detail; the bytes, the relocation list, the insertion
order of ``symbols`` and which :class:`JitError` a bad program gets are
not -- the linker patches at those offsets, the link cache and the
delta planner compare those bytes.  ``STRESS`` and ``STRUCTURAL`` were
taken from the per-instruction emitter of PR 17 (commit 41e6472,
regenerate with ``PYTHONPATH=src python tests/test_jit_oracle.py``) and
pin, per program and architecture, ``(sha256 of the image, relocations,
symbols)`` or the error message.

That emitter is also kept here, as :func:`reference_emit`, for the
hypothesis differential: the two must agree on *any* instruction list,
not only on the pinned rows.
"""

import hashlib
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.helpers import HELPERS, helper_by_id
from repro.ebpf.insn import Insn
from repro.ebpf.jit import (
    PLACEHOLDER,
    JitBinary,
    Relocation,
    RelocKind,
    decode_image,
    jit_compile,
)
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program
from repro.errors import JitError

ARCHES = {"x86_64": (1, 0x9A, 0x9B), "arm64": (2, 0xAA, 0xAB)}
CALL = op.BPF_JMP | op.BPF_CALL
CALL_X = CALL | op.BPF_X


# -- the emitter of commit 41e6472 -------------------------------------------

_HEADER = struct.Struct("<2sBBI")
_PLACEHOLDER_BYTES = PLACEHOLDER.to_bytes(8, "little")


def reference_emit(program, arch="x86_64"):
    try:
        arch_id, insn_prefix, operand_prefix = ARCHES[arch]
    except KeyError:
        raise JitError(f"unsupported target architecture {arch!r}") from None

    insns = program.insns
    image = program.image()
    body = bytearray(_HEADER.size)
    relocations = []
    symbols = {}
    operand_slot = (
        bytes([operand_prefix])
        + _PLACEHOLDER_BYTES
        + bytes([(operand_prefix + sum(_PLACEHOLDER_BYTES)) & 0xFF])
    )

    def emit_reloc(kind, symbol):
        offset = len(body) + 1
        body.extend(operand_slot)
        relocations.append(Relocation(offset=offset, kind=kind, symbol=symbol))
        symbols.setdefault(symbol, []).append(offset)

    lddw_tail = -1  # index of the second half of the last LDDW seen
    tail_replaced = False  # ... which a map operand slot stands in for
    for index, insn in enumerate(insns):
        if index == lddw_tail and tail_replaced:
            continue
        payload = image[index * 8 : index * 8 + 8]
        body.append(insn_prefix)
        body += payload
        body.append((insn_prefix + sum(payload)) & 0xFF)
        if index == lddw_tail:
            continue  # an immediate, whatever its opcode byte says
        opcode = insn.opcode
        if opcode == op.LDDW:
            if index + 1 >= len(insns):
                raise JitError("truncated LDDW pair")
            lddw_tail = index + 1
            tail_replaced = insn.src == op.PSEUDO_MAP_FD
            if tail_replaced:
                if insn.imm >= len(program.map_names):
                    raise JitError(f"map slot {insn.imm} out of range")
                emit_reloc(RelocKind.MAP, program.map_names[insn.imm])
        elif opcode in (CALL, CALL_X):
            helper = helper_by_id(insn.imm)
            if helper is None:
                raise JitError(f"call to unknown helper id {insn.imm}")
            emit_reloc(RelocKind.HELPER, helper.name)

    slot_count = (len(body) - _HEADER.size) // 10
    _HEADER.pack_into(body, 0, b"RJ", 1, arch_id, slot_count)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return JitBinary(
        code=bytes(body) + crc.to_bytes(4, "little"),
        arch=arch,
        insn_cnt=len(insns),
        relocations=relocations,
        symbols=symbols,
    )


def outcome(emit, program, arch):
    """What the rest of the system can see of one compile."""
    try:
        binary = emit(program, arch)
    except JitError as error:
        return str(error)
    assert binary.arch == arch and binary.insn_cnt == len(program.insns)
    return (
        hashlib.sha256(binary.code).hexdigest()[:16],
        tuple((r.offset, r.kind.value, r.symbol) for r in binary.relocations),
        tuple((name, tuple(offsets)) for name, offsets in binary.symbols.items()),
    )


# -- stress programs -----------------------------------------------------------

STRESS_KEYS = [
    (size, seed, with_map, arch)
    for size in (64, 65, 300, 818, 1300)
    for seed in (1, 2, 3)
    for with_map in (0, 1)
    for arch in ARCHES
]

#: Where a ``with_map`` stress program's two operands sit, and under
#: which names -- the same at every size, seed and architecture.
_MAP_AT, _CALL_AT = 89, 109
STRESS_RELOCATIONS = (
    ((_MAP_AT, "map", "stress_map"), (_CALL_AT, "helper", "bpf_map_lookup_elem")),
    (("stress_map", (_MAP_AT,)), ("bpf_map_lookup_elem", (_CALL_AT,))),
)

# (size, seed, with_map, arch) -> sha256 of the image
STRESS = {
    (64, 1, 0, 'x86_64'): 'd94bb9b21600ac04',
    (64, 1, 0, 'arm64'): '504ef72b053e6ad6',
    (64, 1, 1, 'x86_64'): '926f76d64aff9437',
    (64, 1, 1, 'arm64'): '1e1c013b9382ecff',
    (64, 2, 0, 'x86_64'): 'd1496ec0c8a1af17',
    (64, 2, 0, 'arm64'): '94f3834ea8ff768f',
    (64, 2, 1, 'x86_64'): 'cc69ca26191efd6d',
    (64, 2, 1, 'arm64'): '2e7c39b5a7d6c0ae',
    (64, 3, 0, 'x86_64'): '58531e367232de0d',
    (64, 3, 0, 'arm64'): '6b679d93b8afa5f8',
    (64, 3, 1, 'x86_64'): '18b10a00f628de84',
    (64, 3, 1, 'arm64'): 'a8ab65e143eacb90',
    (65, 1, 0, 'x86_64'): 'ef1d61926def6c8a',
    (65, 1, 0, 'arm64'): 'b35b2eaeca0a6721',
    (65, 1, 1, 'x86_64'): '8be7af679146cee4',
    (65, 1, 1, 'arm64'): '733db043e03a90bd',
    (65, 2, 0, 'x86_64'): '79c932d019799823',
    (65, 2, 0, 'arm64'): '951e0b145c59bc6e',
    (65, 2, 1, 'x86_64'): '063343543ab9082c',
    (65, 2, 1, 'arm64'): 'd9dfbc88c5b3c3e4',
    (65, 3, 0, 'x86_64'): 'e0e6dbe7d5a5f484',
    (65, 3, 0, 'arm64'): '6e8556001b192ca3',
    (65, 3, 1, 'x86_64'): '1a5212d19ba92f28',
    (65, 3, 1, 'arm64'): '0a9def6b3b9a9036',
    (300, 1, 0, 'x86_64'): '36d51f85e9305dc4',
    (300, 1, 0, 'arm64'): 'f7c491f1b9c585ab',
    (300, 1, 1, 'x86_64'): '667092a67a782c55',
    (300, 1, 1, 'arm64'): '91eb5ec40be7f834',
    (300, 2, 0, 'x86_64'): '9787c4688f8267f2',
    (300, 2, 0, 'arm64'): '9fc789ce1dbf02ca',
    (300, 2, 1, 'x86_64'): '2c73c2ea3653343a',
    (300, 2, 1, 'arm64'): 'a8c7bfbeabb9dba8',
    (300, 3, 0, 'x86_64'): '1d5fd2546a0e7495',
    (300, 3, 0, 'arm64'): 'fa17ae9e8dc67e74',
    (300, 3, 1, 'x86_64'): 'ff297a27ad2aeb9d',
    (300, 3, 1, 'arm64'): '5c44c6cca9ac1c9a',
    (818, 1, 0, 'x86_64'): '0e95ba3fb063ebdb',
    (818, 1, 0, 'arm64'): '70420da9f9812a08',
    (818, 1, 1, 'x86_64'): '34911f7ed5dbf3dd',
    (818, 1, 1, 'arm64'): '011a865c75f8bd76',
    (818, 2, 0, 'x86_64'): 'eaf9c5b0053b862b',
    (818, 2, 0, 'arm64'): '5ea69d089d56dca4',
    (818, 2, 1, 'x86_64'): '6b08eacf64b1c643',
    (818, 2, 1, 'arm64'): '1ee7b903b1690d78',
    (818, 3, 0, 'x86_64'): '5ba0edb82ed9cea2',
    (818, 3, 0, 'arm64'): 'b071b46ffe08f4b5',
    (818, 3, 1, 'x86_64'): '64039ef81b0b15e9',
    (818, 3, 1, 'arm64'): '9262ee934452aa5b',
    (1300, 1, 0, 'x86_64'): '404b973f2d7aef42',
    (1300, 1, 0, 'arm64'): '4d36655a51f2177c',
    (1300, 1, 1, 'x86_64'): 'bd9e13fb87e402c3',
    (1300, 1, 1, 'arm64'): '5daad9cc3bfa59fc',
    (1300, 2, 0, 'x86_64'): '5a086811e2e2e6ec',
    (1300, 2, 0, 'arm64'): '3f2e5fc1491fefe1',
    (1300, 2, 1, 'x86_64'): '13d4776271c8441e',
    (1300, 2, 1, 'arm64'): 'bd9081037d4c2361',
    (1300, 3, 0, 'x86_64'): '65537fb6ed2e3d27',
    (1300, 3, 0, 'arm64'): '72928e84a46f455c',
    (1300, 3, 1, 'x86_64'): '25e55632fe71962c',
    (1300, 3, 1, 'arm64'): 'ecf5f80faa26b44a',
}


# -- hand-built programs: every sequential rule, tripped and not ----------------

def _mov0_exit():
    return [Insn(op.BPF_ALU64 | op.BPF_MOV, dst=op.R0), Insn(op.BPF_JMP | op.BPF_EXIT)]


def _lddw(tail_opcode=0, src=0, imm=1, tail_imm=2, dst=op.R2, off=0):
    """An LDDW pair whose second half carries ``tail_opcode``."""
    return [
        Insn(op.LDDW, dst=dst, src=src, off=off, imm=imm),
        Insn(tail_opcode, imm=tail_imm),
    ]


def _map_lddw(slot, tail_opcode=0, tail_imm=0, dst=op.R1, off=0):
    return _lddw(tail_opcode, op.PSEUDO_MAP_FD, slot, tail_imm, dst, off)


def _call(helper_id, opcode=CALL):
    return [Insn(opcode, imm=helper_id)]


# name -> (instructions, map names, architecture)
STRUCTURAL_PROGRAMS = {
    "empty-program": ([], (), "x86_64"),
    "empty-program-arm64": ([], (), "arm64"),
    "no-relocations": (_mov0_exit(), (), "x86_64"),
    "literal-lddw": (
        Asm().lddw(op.R0, 0x1234_5678_9ABC_DEF0).exit_().build(), (), "x86_64",
    ),
    "literal-lddw-src-2": (_lddw(src=2) + _mov0_exit(), (), "x86_64"),
    "map-lddw": (_map_lddw(0) + _mov0_exit(), ("m0",), "x86_64"),
    "map-lddw-arm64": (_map_lddw(0) + _mov0_exit(), ("m0",), "arm64"),
    "map-lddw-keeps-dst-and-off": (
        _map_lddw(0, dst=op.R5, off=7) + _mov0_exit(), ("m0",), "x86_64",
    ),
    "map-lddw-tail-is-dropped-whatever-it-holds": (
        _map_lddw(0, tail_opcode=0xB7, tail_imm=77) + _mov0_exit(), ("m0",), "x86_64",
    ),
    # A literal's second half is an immediate, whatever its opcode byte
    # says: it starts no pair of its own and gets no operand.
    "lddw-tail-reads-as-lddw": (
        _lddw(tail_opcode=op.LDDW) + _call(5) + _mov0_exit(), (), "x86_64",
    ),
    "lddw-tail-reads-as-unknown-call": (
        _lddw(tail_opcode=CALL, tail_imm=999) + _mov0_exit(), (), "x86_64",
    ),
    "lddw-tail-reads-as-call-x": (
        _lddw(tail_opcode=CALL_X, tail_imm=5) + _mov0_exit(), (), "x86_64",
    ),
    "lddw-tail-reads-as-map-lddw": (
        [Insn(op.LDDW, dst=op.R2), Insn(op.LDDW, src=op.PSEUDO_MAP_FD, imm=9)]
        + _mov0_exit(),
        (), "x86_64",
    ),
    # ... and so is the second half an operand slot stands in for.
    "map-lddw-tail-reads-as-lddw": (
        _map_lddw(0, tail_opcode=op.LDDW) + _call(5) + _mov0_exit(), ("m0",), "x86_64",
    ),
    "map-lddw-tail-reads-as-unknown-call": (
        _map_lddw(0, tail_opcode=CALL, tail_imm=999) + _mov0_exit(), ("m0",), "x86_64",
    ),
    "call": (_call(5) + _mov0_exit(), (), "x86_64"),
    "call-x": (_call(5, CALL_X) + _mov0_exit(), (), "x86_64"),
    "call-last": (_mov0_exit() + _call(7), (), "x86_64"),
    "jmp32-call-gets-no-operand": (
        [Insn(op.BPF_JMP32 | op.BPF_CALL, imm=5)] + _mov0_exit(), (), "x86_64",
    ),
    "call-after-map-lddw": (
        _map_lddw(0) + _call(1) + _mov0_exit(), ("m0",), "x86_64",
    ),
    "map-lddw-after-call": (
        _call(7) + _map_lddw(0) + _mov0_exit(), ("m0",), "arm64",
    ),
    "two-maps": (
        _map_lddw(0) + _map_lddw(1, dst=op.R2) + _map_lddw(0, dst=op.R3)
        + _call(1) + _call(3) + _call(1) + _mov0_exit(),
        ("first", "second"), "x86_64",
    ),
    "two-slots-one-map-name": (
        _map_lddw(1) + _map_lddw(0) + _mov0_exit(), ("same", "same"), "x86_64",
    ),
    "back-to-back-pairs": (
        _lddw() + _lddw(src=3) + _map_lddw(0) + _lddw() + _call(8) + _mov0_exit(),
        ("m0",), "x86_64",
    ),
    "every-helper": (
        [insn for helper_id in reversed(sorted(HELPERS)) for insn in _call(helper_id)]
        + _mov0_exit(),
        (), "x86_64",
    ),
    # Defects, and which one wins when there are two.
    "lddw-last": (_mov0_exit() + [Insn(op.LDDW, dst=op.R1)], (), "x86_64"),
    "lddw-only": ([Insn(op.LDDW, dst=op.R1)], (), "x86_64"),
    "map-lddw-last": (
        _mov0_exit() + [Insn(op.LDDW, src=op.PSEUDO_MAP_FD)], ("m0",), "x86_64",
    ),
    "map-lddw-last-and-out-of-range": (
        [Insn(op.LDDW, src=op.PSEUDO_MAP_FD, imm=7)], ("m0",), "x86_64",
    ),
    "lddw-tail-is-last": (_mov0_exit() + _lddw(), (), "x86_64"),
    "unknown-helper": (_call(999) + _mov0_exit(), (), "x86_64"),
    "unknown-helper-x": (_call(4, CALL_X) + _mov0_exit(), (), "x86_64"),
    "map-slot-out-of-range": (_map_lddw(1) + _mov0_exit(), ("m0",), "x86_64"),
    "map-slot-without-maps": (_map_lddw(0) + _mov0_exit(), (), "x86_64"),
    "map-slot-unsigned": (_map_lddw(2**32 - 1) + _mov0_exit(), ("m0",), "x86_64"),
    "unknown-helper-then-bad-map": (
        _call(999) + _map_lddw(7) + _mov0_exit(), ("m0",), "x86_64",
    ),
    "bad-map-then-unknown-helper": (
        _map_lddw(7) + _call(999) + _mov0_exit(), ("m0",), "x86_64",
    ),
    "bad-map-then-lddw-last": (
        _map_lddw(7) + [Insn(op.LDDW)], ("m0",), "x86_64",
    ),
    "unknown-helper-then-lddw-last": (_call(999) + [Insn(op.LDDW)], (), "arm64"),
    "good-relocations-then-unknown-helper": (
        _map_lddw(0) + _call(1) + _call(4), ("m0",), "x86_64",
    ),
    "unsupported-arch": (_mov0_exit(), (), "riscv"),
    "unsupported-arch-wins": (_call(999) + [Insn(op.LDDW)], (), "mips"),
    "unsupported-arch-empty-program": ([], (), ""),
}

STRUCTURAL = {
    'empty-program': ('29ba5e8236180ba3', (), ()),
    'empty-program-arm64': ('fd264f73236a5ea7', (), ()),
    'no-relocations': ('1066241cf033b468', (), ()),
    'literal-lddw': ('b7f054e07bfc01f5', (), ()),
    'literal-lddw-src-2': ('d7fe776171a74626', (), ()),
    'map-lddw': ('62d2168a25547a15', ((19, 'map', 'm0'),), (('m0', (19,)),)),
    'map-lddw-arm64': ('0ade74a587ed7332', ((19, 'map', 'm0'),), (('m0', (19,)),)),
    'map-lddw-keeps-dst-and-off': ('d904ef0b4b97de0a', ((19, 'map', 'm0'),), (('m0', (19,)),)),
    'map-lddw-tail-is-dropped-whatever-it-holds': ('62d2168a25547a15', ((19, 'map', 'm0'),), (('m0', (19,)),)),
    'lddw-tail-reads-as-lddw': ('d2f952eb4f1666fe', ((39, 'helper', 'bpf_ktime_get_ns'),), (('bpf_ktime_get_ns', (39,)),)),
    'lddw-tail-reads-as-unknown-call': ('105ab8295fc283f8', (), ()),
    'lddw-tail-reads-as-call-x': ('81c819e78949489a', (), ()),
    'lddw-tail-reads-as-map-lddw': ('bcc8d4c4c88a3298', (), ()),
    'map-lddw-tail-reads-as-lddw': ('5cac09bfa58eadcd', ((19, 'map', 'm0'), (39, 'helper', 'bpf_ktime_get_ns')), (('m0', (19,)), ('bpf_ktime_get_ns', (39,)))),
    'map-lddw-tail-reads-as-unknown-call': ('62d2168a25547a15', ((19, 'map', 'm0'),), (('m0', (19,)),)),
    'call': ('425d9fca1a22a7a1', ((19, 'helper', 'bpf_ktime_get_ns'),), (('bpf_ktime_get_ns', (19,)),)),
    'call-x': ('5df21442fb83d166', ((19, 'helper', 'bpf_ktime_get_ns'),), (('bpf_ktime_get_ns', (19,)),)),
    'call-last': ('17ce0747ac63d48b', ((39, 'helper', 'bpf_get_prandom_u32'),), (('bpf_get_prandom_u32', (39,)),)),
    'jmp32-call-gets-no-operand': ('c06f125cdf6c91a7', (), ()),
    'call-after-map-lddw': ('5d49dbf92c6ac578', ((19, 'map', 'm0'), (39, 'helper', 'bpf_map_lookup_elem')), (('m0', (19,)), ('bpf_map_lookup_elem', (39,)))),
    'map-lddw-after-call': ('afe3aa1193a9a2ad', ((19, 'helper', 'bpf_get_prandom_u32'), (39, 'map', 'm0')), (('bpf_get_prandom_u32', (19,)), ('m0', (39,)))),
    'two-maps': ('b71d39e487407af8', ((19, 'map', 'first'), (39, 'map', 'second'), (59, 'map', 'first'), (79, 'helper', 'bpf_map_lookup_elem'), (99, 'helper', 'bpf_map_delete_elem'), (119, 'helper', 'bpf_map_lookup_elem')), (('first', (19, 59)), ('second', (39,)), ('bpf_map_lookup_elem', (79, 119)), ('bpf_map_delete_elem', (99,)))),
    'two-slots-one-map-name': ('400091a67c61f619', ((19, 'map', 'same'), (39, 'map', 'same')), (('same', (19, 39)),)),
    'back-to-back-pairs': ('5281777e1e01ef0c', ((59, 'map', 'm0'), (99, 'helper', 'bpf_get_smp_processor_id')), (('m0', (59,)), ('bpf_get_smp_processor_id', (99,)))),
    'every-helper': ('f554eaad1b793069', ((19, 'helper', 'bpf_get_smp_processor_id'), (39, 'helper', 'bpf_get_prandom_u32'), (59, 'helper', 'bpf_trace_printk'), (79, 'helper', 'bpf_ktime_get_ns'), (99, 'helper', 'bpf_map_delete_elem'), (119, 'helper', 'bpf_map_update_elem'), (139, 'helper', 'bpf_map_lookup_elem')), (('bpf_get_smp_processor_id', (19,)), ('bpf_get_prandom_u32', (39,)), ('bpf_trace_printk', (59,)), ('bpf_ktime_get_ns', (79,)), ('bpf_map_delete_elem', (99,)), ('bpf_map_update_elem', (119,)), ('bpf_map_lookup_elem', (139,)))),
    'lddw-last': 'truncated LDDW pair',
    'lddw-only': 'truncated LDDW pair',
    'map-lddw-last': 'truncated LDDW pair',
    'map-lddw-last-and-out-of-range': 'truncated LDDW pair',
    'lddw-tail-is-last': ('5be28bec96b6a247', (), ()),
    'unknown-helper': 'call to unknown helper id 999',
    'unknown-helper-x': 'call to unknown helper id 4',
    'map-slot-out-of-range': 'map slot 1 out of range',
    'map-slot-without-maps': 'map slot 0 out of range',
    'map-slot-unsigned': 'map slot 4294967295 out of range',
    'unknown-helper-then-bad-map': 'call to unknown helper id 999',
    'bad-map-then-unknown-helper': 'map slot 7 out of range',
    'bad-map-then-lddw-last': 'map slot 7 out of range',
    'unknown-helper-then-lddw-last': 'call to unknown helper id 999',
    'good-relocations-then-unknown-helper': 'call to unknown helper id 4',
    'unsupported-arch': "unsupported target architecture 'riscv'",
    'unsupported-arch-wins': "unsupported target architecture 'mips'",
    'unsupported-arch-empty-program': "unsupported target architecture ''",
}


def _structural(name):
    insns, map_names, arch = STRUCTURAL_PROGRAMS[name]
    return BpfProgram(insns, map_names=map_names), arch


def _stress(key):
    size, seed, with_map, arch = key
    return make_stress_program(size, seed=seed, with_map=bool(with_map)), arch


def test_tables_cover_every_row():
    assert list(STRESS) == STRESS_KEYS
    assert list(STRUCTURAL) == list(STRUCTURAL_PROGRAMS)
    messages = {row for row in STRUCTURAL.values() if isinstance(row, str)}
    assert len(messages) >= 6  # each JitError, with its operand spelled out


@pytest.mark.parametrize("key", STRESS_KEYS)
def test_stress_image_is_pinned(key):
    digest, relocations, symbols = outcome(jit_compile, *_stress(key))
    assert digest == STRESS[key]
    assert (relocations, symbols) == (STRESS_RELOCATIONS if key[2] else ((), ()))


@pytest.mark.parametrize("name", STRUCTURAL_PROGRAMS)
def test_structural_row_is_pinned(name):
    assert outcome(jit_compile, *_structural(name)) == STRUCTURAL[name]


# -- the differential ----------------------------------------------------------

#: Opcode bytes the emitter reads, and a few it must not.
_LOADED_OPCODES = (op.LDDW, CALL, CALL_X, 0x00, op.BPF_JMP32 | op.BPF_CALL)
_opcodes = st.one_of(st.sampled_from(_LOADED_OPCODES), st.integers(0, 255))
#: Immediates that name a helper or a map slot, or just miss one.
_imms = st.one_of(
    st.sampled_from((0, 1, 2, 3, 4, 5, 8, 9, 999, 2**31, 2**32 - 1)),
    st.integers(0, 2**32 - 1),
)
_any_insn = st.builds(
    Insn,
    opcode=_opcodes,
    dst=st.integers(0, op.MAX_REG),
    src=st.one_of(st.sampled_from((0, op.PSEUDO_MAP_FD, 2)), st.integers(0, 15)),
    off=st.integers(-(2**15), 2**15 - 1),
    imm=_imms,
)
_map_names = st.lists(st.sampled_from(("m0", "m1", "m2")), max_size=3).map(tuple)


@given(
    st.lists(_any_insn, max_size=24),
    _map_names,
    st.sampled_from(("x86_64", "arm64", "arm64", "x86_64", "riscv")),
)
@settings(deadline=None)
def test_agrees_with_the_per_instruction_emitter(insns, map_names, arch):
    program = BpfProgram(insns, map_names=map_names)
    assert outcome(jit_compile, program, arch) == outcome(
        reference_emit, program, arch
    )


def test_agrees_on_a_long_program_full_of_relocations():
    """Hundreds of operand slots, every one shifting what follows."""
    asm = Asm()
    for block in range(300):
        asm.ld_map_fd(op.R1, block % 2).call(5 + block % 4 % 3).lddw(op.R3, block)
        asm.alu64_imm(op.BPF_ADD, op.R3, block)
    program = BpfProgram(asm.exit_().build(), map_names=("even", "odd"))
    for arch in ARCHES:
        assert outcome(jit_compile, program, arch) == outcome(
            reference_emit, program, arch
        )


# -- the round trip ------------------------------------------------------------

_HELPER_ADDRESS = {
    helper.name: 0xFFFF_8000_0010_0000 + helper_id * 0x40
    for helper_id, helper in HELPERS.items()
}
_HELPER_AT = {
    address: next(i for i, h in HELPERS.items() if h.name == name)
    for name, address in _HELPER_ADDRESS.items()
}.get
_MAP_NAMES = ("m0", "m1", "m2")
_MAP_ADDRESS = {name: 0x7000_0000 + 0x1000 * slot for slot, name in enumerate(_MAP_NAMES)}
_MAP_SLOT_AT = {address: _MAP_NAMES.index(name) for name, address in _MAP_ADDRESS.items()}.get

_plain_insn = _any_insn.filter(lambda insn: insn.opcode not in (op.LDDW, CALL, CALL_X))
_literal_pair = st.tuples(
    _any_insn.filter(lambda insn: insn.src != op.PSEUDO_MAP_FD), _any_insn
).map(lambda pair: [pair[0]._replace(opcode=op.LDDW), pair[1]])
_map_pair = st.tuples(_any_insn, st.integers(0, 2), _any_insn).map(
    lambda parts: [
        parts[0]._replace(opcode=op.LDDW, src=op.PSEUDO_MAP_FD, imm=parts[1]),
        parts[2],
    ]
)
_helper_call = st.tuples(
    _any_insn, st.sampled_from((CALL, CALL_X)), st.sampled_from(sorted(HELPERS))
).map(lambda parts: [parts[0]._replace(opcode=parts[1], imm=parts[2])])
_linkable = st.lists(
    st.one_of(_plain_insn.map(lambda insn: [insn]), _literal_pair, _map_pair, _helper_call),
    max_size=12,
).map(lambda pieces: [insn for piece in pieces for insn in piece])


def _signed(imm):
    return imm if imm < 2**31 else imm - 2**32


def as_decoded(insns):
    """``insns`` as the target will decode them: immediates signed, a
    map reference's pair normalised to ``(slot, zero tail)``, a call's
    offset dropped."""
    decoded = []
    tail_of = None
    for opcode, dst, src, off, imm in insns:
        if tail_of is not None:
            is_map = tail_of == op.PSEUDO_MAP_FD
            decoded.append((0, 0, 0, 0, 0) if is_map else (opcode, dst, src, off, _signed(imm)))
            tail_of = None
        elif opcode == op.LDDW:
            tail_of = src
            decoded.append(
                (opcode, dst, src, 0, imm) if src == op.PSEUDO_MAP_FD
                else (opcode, dst, src, off, _signed(imm))
            )
        elif opcode in (CALL, CALL_X):
            decoded.append((opcode, dst, src, 0, imm))
        else:
            decoded.append((opcode, dst, src, off, _signed(imm)))
    return decoded


@given(_linkable, st.sampled_from(sorted(ARCHES)))
@settings(deadline=None)
def test_linked_image_decodes_to_the_program(insns, arch):
    program = BpfProgram(insns, map_names=_MAP_NAMES)
    linked = jit_compile(program, arch).link(
        lambda reloc: {**_HELPER_ADDRESS, **_MAP_ADDRESS}[reloc.symbol]
    )
    decoded = decode_image(linked.code, _HELPER_AT, _MAP_SLOT_AT, expect_arch=arch)
    assert decoded == as_decoded(program.insns)


if __name__ == "__main__":
    print("STRESS = {")
    for stress_key in STRESS_KEYS:
        digest, *relocations = outcome(jit_compile, *_stress(stress_key))
        expected = STRESS_RELOCATIONS if stress_key[2] else ((), ())
        assert tuple(relocations) == expected, (stress_key, relocations)
        print(f"    {stress_key!r}: {digest!r},")
    print("}\n\nSTRUCTURAL = {")
    for row_name in STRUCTURAL_PROGRAMS:
        print(f"    {row_name!r}: {outcome(jit_compile, *_structural(row_name))!r},")
    print("}")

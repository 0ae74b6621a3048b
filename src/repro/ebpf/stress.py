"""Synthetic Socket Filter stress programs (paper §6).

The paper deploys "synthetic Socket Filter eBPF programs from the
official Linux eBPF stress test" with instruction counts from 1.3K to
95K.  This generator produces verifier-clean programs of an *exact*
requested size that mix straight-line arithmetic, forward branches,
and (optionally) map lookups -- the three shapes that exercise the
verifier's state exploration, the JIT's relocation paths, and the
interpreter.

Programs are deterministic: the same (size, seed) always produces the
same instructions and, for a given packet, the same result.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.program import BpfProgram, ProgType

#: The instruction sizes used across Fig 2a / Fig 4a.
STRESS_SIZES = (1_300, 11_000, 26_000, 49_000, 76_000, 95_000)

_PROLOGUE_LEN = 3
_EPILOGUE_LEN = 2
_ARITH_BLOCK_LEN = 6
_BRANCH_BLOCK_LEN = 5
_MAP_BLOCK_LEN = 13

#: Default readable context window (probe packet size).
CTX_SIZE = 256


def make_stress_program(
    n_insns: int,
    seed: int = 1,
    with_map: bool = False,
    name: str = "",
    ctx_size: int = CTX_SIZE,
) -> BpfProgram:
    """Build a verifier-clean socket filter of exactly ``n_insns``.

    With ``with_map`` the program references one array map in slot 0
    (4-byte key, 8-byte value) via ``bpf_map_lookup_elem``, exercising
    the relocation path end to end.
    """
    minimum = _PROLOGUE_LEN + _EPILOGUE_LEN + _ARITH_BLOCK_LEN
    if with_map:
        minimum += _MAP_BLOCK_LEN
    if n_insns < minimum:
        raise ReproError(f"stress program needs >= {minimum} insns")

    asm = Asm()
    # Prologue: preserve ctx in r6 (helpers clobber r1-r5), seed the
    # accumulator, and make r0 readable for early exits.
    asm.mov_reg(op.R6, op.R1)
    asm.mov_imm(op.R7, seed & 0x7FFFFFFF)
    asm.mov_imm(op.R0, 0)

    budget = n_insns - _PROLOGUE_LEN - _EPILOGUE_LEN
    block_index = 0
    offset_cursor = seed % ctx_size
    map_emitted = False

    while budget >= _ARITH_BLOCK_LEN:
        block_index += 1
        want_map = with_map and not map_emitted and budget >= _MAP_BLOCK_LEN
        want_branch = block_index % 7 == 0 and budget >= _BRANCH_BLOCK_LEN

        if want_map:
            _emit_map_block(asm, block_index)
            map_emitted = True
            budget -= _MAP_BLOCK_LEN
        elif want_branch:
            offset_cursor = _emit_branch_block(
                asm, block_index, offset_cursor, ctx_size
            )
            budget -= _BRANCH_BLOCK_LEN
        else:
            offset_cursor = _emit_arith_block(
                asm, block_index, offset_cursor, ctx_size, seed
            )
            budget -= _ARITH_BLOCK_LEN

    # Pad to the exact target with accumulator no-ops.
    while budget > 0:
        asm.alu64_imm(op.BPF_ADD, op.R7, 0)
        budget -= 1

    # Epilogue: return the accumulator.
    asm.mov_reg(op.R0, op.R7)
    asm.exit_()

    insns = asm.build()
    if len(insns) != n_insns:
        raise ReproError(
            f"generator bug: built {len(insns)} insns, wanted {n_insns}"
        )
    return BpfProgram(
        insns=insns,
        name=name or f"stress_{n_insns}_{seed}",
        prog_type=ProgType.SOCKET_FILTER,
        map_names=("stress_map",) if with_map else (),
    )


def make_stress_variant(
    base: BpfProgram, imm: int, name: str = ""
) -> BpfProgram:
    """A one-instruction edit of ``base``: the production hotpatch shape.

    Rewrites the last padding no-op (``r7 += 0``) to ``r7 += imm``,
    leaving every other instruction -- and therefore the linked image
    layout -- untouched.  Raises when ``base`` has no padding to edit
    (sizes that divide evenly into generator blocks).
    """
    pad = Asm()
    pad.alu64_imm(op.BPF_ADD, op.R7, 0)
    (pad_insn,) = pad.build()
    insns = list(base.insns)
    for index in range(len(insns) - _EPILOGUE_LEN - 1, -1, -1):
        if insns[index] == pad_insn:
            insns[index] = insns[index]._replace(imm=imm)
            break
    else:
        raise ReproError(f"{base.name}: no padding no-op to edit")
    return BpfProgram(
        insns=insns,
        name=name or base.name,
        prog_type=base.prog_type,
        map_names=base.map_names,
    )


def _emit_arith_block(
    asm: Asm, block: int, offset: int, ctx_size: int, seed: int
) -> int:
    asm.ldx_b(op.R8, op.R6, offset)
    asm.alu64_reg(op.BPF_ADD, op.R7, op.R8)
    asm.alu64_imm(op.BPF_XOR, op.R7, (block * 2_654_435_761 + seed) & 0x7FFFFFFF)
    asm.alu64_imm(op.BPF_MUL, op.R7, (block % 13) * 2 + 3)
    asm.alu64_imm(op.BPF_RSH, op.R7, 1)
    asm.alu64_imm(op.BPF_AND, op.R7, 0x7FFF_FFFF)
    return (offset + 7) % ctx_size


def _emit_branch_block(asm: Asm, block: int, offset: int, ctx_size: int) -> int:
    alt = f"alt_{block}"
    join = f"join_{block}"
    asm.ldx_b(op.R8, op.R6, offset)
    asm.jmp_imm(op.BPF_JGT, op.R8, 127, alt)
    asm.alu64_imm(op.BPF_ADD, op.R7, 3)
    asm.ja(join)
    asm.label(alt)
    asm.alu64_imm(op.BPF_XOR, op.R7, 0x55)
    asm.label(join)
    return (offset + 11) % ctx_size


def _emit_map_block(asm: Asm, block: int) -> None:
    null = f"mnull_{block}"
    join = f"mjoin_{block}"
    # key = 0 on the stack at r10-4
    asm.mov_imm(op.R8, 0)
    asm.stx(op.BPF_W, op.R10, op.R8, -4)
    asm.mov_reg(op.R2, op.R10)
    asm.alu64_imm(op.BPF_ADD, op.R2, -4)
    asm.ld_map_fd(op.R1, 0)  # 2 insns
    asm.call(1)  # bpf_map_lookup_elem
    asm.jmp_imm(op.BPF_JEQ, op.R0, 0, null)
    asm.ldx_w(op.R8, op.R0, 0)
    asm.alu64_reg(op.BPF_ADD, op.R7, op.R8)
    asm.mov_imm(op.R0, 0)
    asm.ja(join)
    asm.label(null)
    asm.mov_imm(op.R0, 0)
    asm.label(join)

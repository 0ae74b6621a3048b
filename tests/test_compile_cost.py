"""Deterministic cost guard for the compile path.

What ``verify`` and ``jit_compile`` cost in Python is mostly *how many
calls they make* -- into Python functions and into C ones alike -- and
that count repeats exactly.  These tests count ``call`` and ``c_call``
events with :func:`sys.setprofile` and pin the shape of both stages, so
a per-instruction call cannot come back unnoticed, on any host, however
noisy:

* verifying straight-line scalar code makes the same calls at any
  length, and each branch adds a constant;
* compiling a relocation-free program makes the same calls at any
  length, and each relocation adds a bounded number.
"""

import gc
import sys

import pytest

from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.jit import jit_compile
from repro.ebpf.program import BpfProgram
from repro.ebpf.stress import make_stress_program
from repro.ebpf.verifier import verify

SIZES = (64, 818, 1300)


def calls_made(function, *args) -> int:
    """Calls made while ``function(*args)`` runs, whether the callee is
    written in Python or in C (``function``'s own frame included)."""
    count = 0

    def on_event(_frame, event, _arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    gc.disable()  # a collection would run whatever callbacks are installed
    sys.setprofile(on_event)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


def scalar_program(size: int, diamonds: int = 0) -> BpfProgram:
    """The stress generator's arithmetic on a byte of the context, to
    exactly ``size`` instructions, after ``diamonds`` two-armed branches
    whose arms rejoin with equal states."""
    asm = Asm().mov_reg(op.R6, op.R1).mov_imm(op.R7, 1).mov_imm(op.R0, 0)
    for index in range(diamonds):
        asm.ldx_b(op.R8, op.R6, index)
        asm.jmp_imm(op.BPF_JGT, op.R8, 127, f"else{index}")
        asm.alu64_imm(op.BPF_ADD, op.R7, 3)
        asm.ja(f"join{index}")
        asm.label(f"else{index}")
        asm.alu64_imm(op.BPF_XOR, op.R7, 0x55)
        asm.label(f"join{index}")
    block = 0
    while len(asm) + 6 <= size - 2:
        block += 1
        asm.ldx_b(op.R8, op.R6, block % 256)
        asm.alu64_reg(op.BPF_ADD, op.R7, op.R8)
        asm.alu64_imm(op.BPF_XOR, op.R7, 0x5A5A + block)
        asm.alu64_imm(op.BPF_MUL, op.R7, 7)
        asm.alu64_imm(op.BPF_RSH, op.R7, 1)
        asm.alu32_imm(op.BPF_AND, op.R7, 0x7FFF_FFFF)
    while len(asm) < size - 2:
        asm.alu64_imm(op.BPF_ADD, op.R7, 0)
    program = BpfProgram(asm.mov_reg(op.R0, op.R7).exit_().build())
    assert len(program) == size
    return program


# -- verify -------------------------------------------------------------------

def test_verify_calls_do_not_grow_with_straight_line_code():
    counts = [calls_made(verify, scalar_program(size)) for size in SIZES]
    assert counts[0] == counts[1] == counts[2]
    assert verify(scalar_program(1300)).states_visited == 1300
    # Its own set-up, the three instructions that first write a register
    # and the exit -- not a call more for the 1,290 others.
    assert counts[0] <= 60


def test_verify_calls_per_branch_are_constant():
    plain, some, more = (
        calls_made(verify, scalar_program(818, diamonds))
        for diamonds in (0, 8, 24)
    )
    per_diamond = (some - plain) / 8
    assert (more - plain) / 24 == per_diamond
    assert 0 < per_diamond <= 24  # a conditional and a ``ja``, both stepped


# -- jit_compile ----------------------------------------------------------------

def test_compile_calls_do_not_grow_with_the_program():
    counts = [calls_made(jit_compile, scalar_program(size)) for size in SIZES]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0] <= 60


@pytest.mark.parametrize("arch", ("x86_64", "arm64"))
def test_compile_calls_per_relocation_are_bounded(arch):
    """A ``with_map`` stress program has two relocations, the map and
    the lookup helper, whatever its size."""
    plain = calls_made(jit_compile, make_stress_program(818, seed=1), arch)
    counts = [
        calls_made(jit_compile, make_stress_program(size, seed=1, with_map=True), arch)
        for size in SIZES
    ]
    assert counts[0] == counts[1] == counts[2]
    assert len(jit_compile(make_stress_program(64, with_map=True)).relocations) == 2
    assert 0 < counts[0] - plain <= 2 * 24

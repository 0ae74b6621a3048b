"""Deterministic cost guard for the first-exec data path.

What ``Sandbox.run_hook`` costs in Python is mostly *how many Python
functions it calls*, and that count repeats exactly (the ledger's
``pycalls.*`` rows are the same count, taken by cProfile).  These tests
count ``call`` events with :func:`sys.setprofile` and pin the shape of
the three stages -- fetch, decode, execute -- so a per-slot or per-line
Python call cannot come back unnoticed, on any host, however noisy:

* decoding a relocation-free image makes the same calls at any size;
* a cache read makes the same calls at any length, plus exactly what
  filling a line takes for each line it misses;
* an ALU or jump instruction executes without a call.
"""

import gc
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.ebpf import opcodes as op
from repro.ebpf.asm import Asm
from repro.ebpf.interpreter import Interpreter
from repro.ebpf.jit import decode_image
from repro.mem.cache import CacheModel
from repro.mem.memory import PhysicalMemory
from repro.sim.core import Simulator
from tests.test_decode_oracle import ADDRESSES, base_image


def python_calls(function, *args) -> Counter:
    """Python-level calls made while ``function(*args)`` runs, counted
    by ``file.function`` (``function``'s own frame included)."""
    calls = Counter()

    def on_event(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            calls[f"{Path(code.co_filename).stem}.{code.co_name}"] += 1

    gc.disable()  # a collection would run whatever callbacks are installed
    sys.setprofile(on_event)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


# -- decode -------------------------------------------------------------------

def _image(size: int, with_map: bool = False) -> bytes:
    return base_image(size, with_map, True, "x86_64")


def _decode_calls(image: bytes) -> Counter:
    def helper_at(address):
        return {ADDRESSES["bpf_map_lookup_elem"]: 1}.get(address)

    def map_slot_at(address):
        return {ADDRESSES["stress_map"]: 0}.get(address)

    return python_calls(decode_image, image, helper_at, map_slot_at)


def test_decode_calls_do_not_grow_with_the_image():
    small, medium, large = (_decode_calls(_image(size)) for size in (64, 818, 1300))
    assert small == medium == large
    assert sum(small.values()) <= 4  # itself, the header's arch, the lane check


def test_decode_calls_per_relocation_are_bounded():
    """A ``with_map`` stress program has two relocations, the map and
    the lookup helper: each costs its operand fetch and its reverse-GOT
    lookup, whatever the image size."""
    plain = sum(_decode_calls(_image(818)).values())
    for size in (64, 818, 1300):
        calls = _decode_calls(_image(size, with_map=True))
        assert calls["jit._operand"] == 2
        assert calls[f"{Path(__file__).stem}.helper_at"] == 1
        assert calls[f"{Path(__file__).stem}.map_slot_at"] == 1
        assert sum(calls.values()) == plain + 4


# -- fetch --------------------------------------------------------------------

@pytest.fixture
def cache():
    memory = PhysicalMemory(1 << 16)
    memory.write(memory.base, bytes(range(256)) * 256)
    return CacheModel(Simulator(), memory, cpki=5.0, seed=7)


def _own_calls(calls: Counter) -> Counter:
    """The calls into the cache model's own functions."""
    return Counter({
        name: count for name, count in calls.items() if name.startswith("cache.")
    })


def test_cached_read_calls_do_not_grow_with_its_length(cache):
    base = cache.memory.base
    cache.cpu_read(base, 1 << 15)
    counts = [
        python_calls(cache.cpu_read, base + 5, length)
        for length in (8, 64, 4096, 13_012)
    ]
    assert all(count == counts[0] for count in counts)
    assert not counts[0]["memory.read"]


def test_missed_read_calls_only_fill_lines(cache):
    """A missed line costs its fill -- one DRAM read, one residency
    draw, one line record, the same calls for every line; the walk
    itself calls no more of the model's functions than a hit does."""
    base = cache.memory.base
    cache.cpu_read(base, 64)
    hit = python_calls(cache.cpu_read, base, 64)
    calls_per_fill = set()
    for length in (8, 4096, 13_012):
        cache.flush_all()
        calls = python_calls(cache.cpu_read, base + 5, length)
        lines = (5 + length + cache.line_bytes - 1) // cache.line_bytes
        assert calls["memory.read"] == calls["random.expovariate"] == lines
        assert _own_calls(calls) == _own_calls(hit)
        calls_per_fill.add((sum(calls.values()) - sum(hit.values())) / lines)
    assert len(calls_per_fill) == 1 and calls_per_fill.pop() <= 5


# -- execute ------------------------------------------------------------------


def _program(alu_blocks: int) -> list:
    """``alu_blocks`` rounds of the stress generator's arithmetic and a
    both-ways branch, on a value loaded once."""
    asm = Asm().mov_reg(op.R6, op.R1).ldx_b(op.R7, op.R6, 3).mov_imm(op.R0, 0)
    for block in range(alu_blocks):
        asm.alu64_reg(op.BPF_ADD, op.R7, op.R6)
        asm.alu64_imm(op.BPF_XOR, op.R7, 0x5A5A + block)
        asm.alu64_imm(op.BPF_MUL, op.R7, 7)
        asm.alu64_imm(op.BPF_RSH, op.R7, 1)
        asm.alu32_imm(op.BPF_AND, op.R7, 0x7FFF_FFFF)
        asm.alu64_imm(op.BPF_LSH, op.R7, 2)
        asm.jmp_imm(op.BPF_JSGT, op.R7, block, f"over{block}")
        asm.alu64_imm(op.BPF_SUB, op.R7, 1)
        asm.label(f"over{block}")
        asm.jmp_reg(op.BPF_JEQ, op.R7, op.R6, f"skip{block}")
        asm.mov_reg(op.R8, op.R7)
        asm.label(f"skip{block}")
    return asm.mov_reg(op.R0, op.R7).exit_().build()


def test_alu_and_jump_instructions_execute_without_a_call():
    ctx = bytes(range(64))
    short, long = _program(1), _program(400)
    few = python_calls(Interpreter().run, short, ctx)
    many = python_calls(Interpreter().run, long, ctx)
    assert Interpreter().run(long, ctx).insns_executed > 3_000
    assert few == many

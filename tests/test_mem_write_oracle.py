"""Write-side oracle for :mod:`repro.mem`.

How ``PhysicalMemory.write`` walks pages and how ``CacheModel.cpu_write``
/ ``dma_write`` / ``flush`` walk lines is an implementation detail; what
DRAM holds afterwards, which cached lines are stale, what ``CacheStats``
and ``write_epoch`` count and what an out-of-range access says are not.

``ORACLE`` was taken from the per-page ``while`` / per-line
``_line_addr`` walks of PR 23 (commit a15316f, regenerate with
``PYTHONPATH=src python tests/test_mem_write_oracle.py``) and pins, per
span shape and seed, what a seeded sequence of ``write`` / ``fill`` /
``cpu_write`` / ``dma_write`` / ``cpu_read`` / ``flush`` did.  The one
thing the sequences avoid is a zero-length ``flush`` at an address that
is not line-aligned, which that commit got wrong (it dropped the line
under the address; ``test_mem_cache.py`` has the case).

The hypothesis property below the table is the contract itself, with no
copy of the old loops: DRAM equals a flat ``bytearray``, a cached line
that has not expired is stale iff a ``dma_write`` touched it since its
last fill or ``cpu_write``, and a line that is not stale holds DRAM's
bytes.
"""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.errors import MemoryError_
from repro.mem.cache import CacheModel
from repro.mem.memory import PhysicalMemory
from repro.sim.core import Simulator

LINE = params.CACHE_LINE_BYTES
PAGE = PhysicalMemory.PAGE
MEMORY_BYTES = 3 * PAGE
SEEDS = range(6)
STEPS = 120


# -- span shapes: (offset from base, length) ----------------------------------

#: Where the sequences work: either side of both interior page
#: boundaries and the last lines of memory, so that reads, stores and
#: DMA keep landing on each other's lines.
ANCHORS = (PAGE, PAGE, 2 * PAGE, MEMORY_BYTES - 4 * LINE)


def _anywhere(rng):
    start = rng.choice(ANCHORS) + rng.randrange(-4 * LINE, LINE)
    return start, rng.choice((8, LINE, 2 * LINE + 1))


def _inside_a_line(rng):
    line = rng.choice(ANCHORS) // LINE + rng.randrange(-4, 4)
    start = rng.randrange(LINE)
    return line * LINE + start, rng.randint(1, LINE - start)


def _across_lines(rng):
    start = rng.choice(ANCHORS) - rng.randrange(LINE + 1, 4 * LINE)
    return start, LINE + rng.choice((1, 8, LINE - 1, LINE))


def _across_a_page(rng):
    before = rng.choice((1, 8, LINE, 3 * LINE + 5))
    return (
        rng.choice((PAGE, PAGE, 2 * PAGE)) - before,
        before + rng.choice((1, 8, LINE, PAGE + 9)),
    )


def _zero_length(rng):
    return rng.choice((0, PAGE - LINE + 5, PAGE - 1, PAGE, MEMORY_BYTES - 1, MEMORY_BYTES)), 0


def _last_byte(rng):
    length = rng.choice((1, 8, LINE, LINE + 3, 3 * LINE))
    return MEMORY_BYTES - length, length


def _off_the_end(rng):
    return (
        MEMORY_BYTES - rng.choice((0, 1, 8, LINE, 2 * LINE + 3)),
        rng.choice((2 * LINE + 4, 3 * LINE, PAGE)),
    )


SHAPES = {
    "inside-a-line": _inside_a_line,
    "across-lines": _across_lines,
    "across-a-page": _across_a_page,
    "zero-length": _zero_length,
    "last-byte": _last_byte,
    "off-the-end": _off_the_end,
}

_KINDS = (
    ["cpu_read"] * 5 + ["cpu_write"] * 5 + ["dma_write"] * 5 + ["write"] * 3
    + ["fill"] * 2 + ["flush"] * 3 + ["advance"] * 2
)


def run_sequence(shape: str, seed: int):
    """One seeded op sequence; what it left behind, as plain values."""
    rng = random.Random(f"{shape}/{seed}")
    sim = Simulator()
    memory = PhysicalMemory(MEMORY_BYTES)
    cache = CacheModel(sim, memory, cpki=5.0, seed=seed)
    seen = hashlib.sha256()  # every byte cpu_read returned, in order
    raised = []
    for _ in range(STEPS):
        kind = rng.choice(_KINDS)
        # Two spans in three have the row's shape; the rest land
        # anywhere, so cached lines exist under whatever the shape hits.
        offset, length = (
            SHAPES[shape](rng) if rng.random() < 0.66 else _anywhere(rng)
        )
        address = memory.base + offset
        payload = rng.randbytes(length)
        try:
            if kind == "advance":
                sim.run(until=sim.now + rng.choice((1.0, 50.0, 2_000.0)))
            elif kind == "cpu_read":
                seen.update(cache.cpu_read(address, length))
            elif kind == "flush":
                if length == 0:
                    address -= address % LINE  # see the module docstring
                cache.flush(address, length)
            elif kind == "fill":
                memory.fill(address, length, rng.choice((0, 0, 0xA5)))
            elif kind == "write":
                memory.write(address, payload)
            else:
                getattr(cache, kind)(address, payload)
        except MemoryError_ as fault:
            raised.append(str(fault))
    dram = hashlib.sha256(memory.read(memory.base, MEMORY_BYTES)).hexdigest()[:16]
    lines = sorted(
        (addr - memory.base, line.stale, hashlib.sha256(line.snapshot).hexdigest()[:8])
        for addr, line in cache._lines.items()
    )
    stats = cache.stats
    return (
        dram,
        seen.hexdigest()[:16],
        len(lines),
        sum(stale for _addr, stale, _snapshot in lines),
        hashlib.sha256(repr(lines).encode()).hexdigest()[:16],
        (stats.loads, stats.hits, stats.misses, stats.stale_hits, stats.flushes,
         stats.evictions_observed),
        memory.write_epoch,
        memory.resident_pages,
        hashlib.sha256("\n".join(raised).encode()).hexdigest()[:16] if raised else "",
        len(raised),
    )


#: (shape, seed) -> (DRAM, bytes cpu_read saw, lines cached, of them
#: stale, sha of (offset, stale, snapshot) per line, CacheStats,
#: write_epoch, resident pages, sha of the raised messages, how many).
ORACLE = {
    ('inside-a-line', 0): ('4911f935a3333039', '34cf0a3c9db40f0c', 11, 3, 'a52739777cea2d46', (22, 4, 18, 0, 4, 3), 73, 3, '', 0),
    ('inside-a-line', 1): ('63b6569d69000011', '03b50888ddeffacf', 9, 0, 'b24101d740ec9a3c', (24, 3, 21, 0, 7, 5), 75, 3, '', 0),
    ('inside-a-line', 2): ('febea9fc3a3ea742', '787136c9beed69e5', 12, 4, '123ad6016a35b511', (31, 10, 21, 2, 3, 6), 83, 3, '', 0),
    ('inside-a-line', 3): ('db8b3b58f9771ebd', 'ed9fea851b8698d4', 15, 2, '0a8daf8303b25f68', (24, 0, 24, 0, 6, 3), 77, 3, '', 0),
    ('inside-a-line', 4): ('f6041d0815d7aeb4', 'dabe2c71f45c2aee', 13, 5, 'ed95a378c70cdd14', (25, 6, 19, 2, 6, 0), 83, 3, '', 0),
    ('inside-a-line', 5): ('ede46ed678c902e2', '7bd04e0d083984dd', 15, 4, '745b1fe60e1d55d4', (41, 11, 30, 2, 8, 7), 74, 3, '', 0),
    ('across-lines', 0): ('2df760d9b1fe9678', 'b63392d6c2e84ad3', 13, 5, '2342a59fdf0b004e', (65, 26, 39, 6, 18, 8), 75, 3, '', 0),
    ('across-lines', 1): ('eb136a1983f46d00', 'e224737d7e0d5e72', 10, 4, '6ca125dd8db39c8c', (67, 33, 34, 13, 16, 8), 72, 3, '', 0),
    ('across-lines', 2): ('97a9aeb042ca4633', 'b8955d67f8c1909e', 10, 3, '014646dd56dae8c7', (63, 33, 30, 5, 13, 7), 74, 3, '', 0),
    ('across-lines', 3): ('1ec869b7b4617821', 'edc69e3a8da4c103', 11, 0, '116059e24edde7f6', (52, 14, 38, 4, 19, 8), 71, 3, '', 0),
    ('across-lines', 4): ('b8676377d73ecced', '107097b348d5ab23', 11, 5, '1113da5628f8ce1f', (60, 25, 35, 9, 18, 6), 77, 3, '', 0),
    ('across-lines', 5): ('3916b9aee4fa1fa4', 'cab7d411170609f4', 7, 4, '4d6c966f9689fdb7', (42, 13, 29, 3, 19, 3), 82, 3, '', 0),
    ('across-a-page', 0): ('79e8a8716acac377', 'b0d8d9c5f2f1d19c', 70, 8, '0ec2dd9e49225e7e', (191, 24, 167, 9, 89, 7), 70, 3, 'd9f6984b3ce65df9', 6),
    ('across-a-page', 1): ('a22cd7ab20486478', 'f93b4eac555e82d1', 71, 2, 'a10380b1287e92e7', (457, 183, 274, 10, 144, 56), 64, 3, 'a75066243000559d', 7),
    ('across-a-page', 2): ('ccf48d5ecfc61299', 'b232a1f1afee524e', 8, 0, 'a91ee67a3cf70637', (240, 22, 218, 5, 209, 0), 69, 3, 'dbd2b23eddb46941', 5),
    ('across-a-page', 3): ('3750551a08565e13', '458d8f49e512568a', 67, 2, 'bce5f93a8cfdf419', (241, 80, 161, 4, 88, 6), 66, 3, 'e4a6a3391d7ff628', 4),
    ('across-a-page', 4): ('b22fac1d872c9cf9', '10b6634a86d11247', 125, 0, '71134e3e9be9944f', (176, 19, 157, 3, 28, 3), 64, 3, '5976ba513221b02b', 5),
    ('across-a-page', 5): ('93ac0da87ca1c22d', '56f82ffa95c5f41c', 64, 58, '27dab6c7f544ea1f', (321, 28, 293, 4, 217, 11), 59, 3, 'b7fc39bdd7a7e3b9', 6),
    ('zero-length', 0): ('b59ca9c2c8c53052', 'ad6994d07d3fbd0b', 8, 3, '0c1452f2916a5c87', (11, 1, 10, 0, 2, 0), 76, 3, '', 0),
    ('zero-length', 1): ('5ae1c2f6e8ea01bc', 'ba4744ac50ab5551', 6, 1, '243c33c4d3e0b50f', (10, 1, 9, 1, 3, 0), 69, 3, '', 0),
    ('zero-length', 2): ('83ffa728c8029a73', '6b3c70fd465d01cc', 3, 0, 'a4bfcd7c42e615ac', (7, 0, 7, 0, 4, 0), 79, 3, '', 0),
    ('zero-length', 3): ('2fe3a457c6404841', 'd8ba151013df6b92', 12, 0, '0d0e9bd92cc6480e', (23, 4, 19, 0, 2, 5), 72, 3, '', 0),
    ('zero-length', 4): ('0c15c2eefe6cab64', 'd9e9d94b4d9ba125', 5, 0, 'af39e752b3bd1138', (9, 0, 9, 0, 4, 0), 70, 3, '', 0),
    ('zero-length', 5): ('184f5fd856a865fb', 'ab68a162cfa31864', 13, 2, '324ce7045a023213', (23, 7, 16, 3, 2, 1), 79, 3, '', 0),
    ('last-byte', 0): ('fc0561c2096f5e2e', '1adf16353e729b49', 9, 2, 'f68e869174baa824', (40, 16, 24, 5, 13, 2), 75, 3, '', 0),
    ('last-byte', 1): ('380ffb9f3396d5d0', '0fed702fae838ea4', 11, 1, '77037b5db406cb07', (37, 10, 27, 3, 12, 4), 77, 3, '', 0),
    ('last-byte', 2): ('48704bba8e7a5559', '7f7e752a0776d1bc', 13, 2, '23f1bf48a8d8a1ca', (44, 14, 30, 1, 11, 6), 66, 3, '', 0),
    ('last-byte', 3): ('5709093b2626c9a4', '7923f94582d6624d', 9, 1, 'e517cd2a8819574b', (37, 19, 18, 10, 9, 0), 84, 3, '', 0),
    ('last-byte', 4): ('c6b9acdf1445a0ac', 'd5df6a422098fee0', 7, 2, 'ac7c9be515460bb3', (37, 19, 18, 7, 10, 1), 69, 3, '', 0),
    ('last-byte', 5): ('5517dd863cd13c60', 'aacf542286a886f4', 4, 0, 'b771bb344d995346', (31, 15, 16, 3, 11, 1), 84, 3, '', 0),
    ('off-the-end', 0): ('d7f229cdcab38b64', '7968130ce0567964', 10, 1, '39a0b716f6192d75', (59, 15, 44, 0, 7, 5), 18, 3, '77b0aefecbbcbac8', 75),
    ('off-the-end', 1): ('77063228169649d0', 'ec2d98e5f2b11f06', 10, 0, '0b54bf0ac7665919', (45, 5, 40, 0, 7, 9), 32, 3, 'ccc9b93940a05420', 52),
    ('off-the-end', 2): ('3e39534ddbf5b333', 'd2852a477832eace', 8, 2, 'c34a70f51d71edaf', (65, 22, 43, 4, 15, 2), 27, 3, '46bdd5e18dce416a', 61),
    ('off-the-end', 3): ('ac7d05b23a55cc80', 'd89dc84a6c0a37fb', 9, 1, 'e622ba4969a6512e', (70, 11, 59, 0, 12, 13), 16, 3, '5f1b1f550f9dca8a', 76),
    ('off-the-end', 4): ('3489efdecd8d849b', 'da86417707b278b5', 6, 0, 'c81109185cb91528', (56, 10, 46, 0, 15, 7), 22, 3, 'd79169f4cec7092b', 58),
    ('off-the-end', 5): ('75f09199904cb9f1', '0dfcfdbbe3870d47', 16, 2, '6d5f9f3a0f5358e7', (58, 11, 47, 0, 6, 8), 21, 3, '79892e33d7da59cb', 66),
}


def test_seeded_sequences_match_the_parent_walks():
    got = {
        (shape, seed): run_sequence(shape, seed) for shape in SHAPES for seed in SEEDS
    }
    assert got == ORACLE
    # The rows are only worth pinning if stale lines, flushed lines,
    # expired lines and faults all occur in them.
    assert sum(row[3] for row in got.values()) > 50
    assert all(sum(row[5][i] for row in got.values()) > 100 for i in (3, 4, 5))
    assert all(got["off-the-end", seed][9] > 0 for seed in SEEDS)
    assert all(got["inside-a-line", seed][9] == 0 for seed in SEEDS)


def test_an_out_of_range_write_says_where_and_changes_nothing():
    sim = Simulator()
    memory = PhysicalMemory(MEMORY_BYTES)
    cache = CacheModel(sim, memory, cpki=5.0, seed=0)
    cache.cpu_read(memory.end - LINE, LINE)
    for store in (memory.write, cache.cpu_write, cache.dma_write):
        try:
            store(memory.end - 4, bytes(8))
        except MemoryError_ as fault:
            assert str(fault) == "access [0x3ffc, 0x4004) outside [0x1000, 0x4000)"
        else:
            raise AssertionError(f"{store.__name__} ran off the end")
    assert memory.write_epoch == 0 and memory.resident_pages == 0
    assert not cache.is_stale(memory.end - 4)


# -- the contract, model-free -------------------------------------------------

SMALL = 2 * PAGE  # two pages, 128 lines: ops collide often

_spans = st.one_of(
    st.tuples(st.integers(0, SMALL), st.integers(0, 3 * LINE)),
    st.tuples(st.sampled_from((PAGE - 1, PAGE - 8, PAGE - LINE, PAGE)), st.integers(0, 2 * LINE)),
    st.tuples(st.integers(SMALL - 2 * LINE, SMALL + LINE), st.integers(0, 3 * LINE)),
    st.tuples(st.integers(0, SMALL), st.just(PAGE + LINE + 1)),
)
_steps = st.one_of(
    st.tuples(
        st.sampled_from(("write", "fill", "cpu_write", "dma_write", "cpu_read", "flush")),
        _spans,
        st.integers(0, 255),
    ),
    st.tuples(st.just("advance"), st.sampled_from((1.0, 300.0, 20_000.0)), st.none()),
)


def _lines_of(address, length):
    return range(address - address % LINE, address + length, LINE) if length else ()


@given(st.lists(_steps, max_size=40), st.integers(0, 2**32), st.sampled_from((0.0, 5.0, 40.0)))
@settings(deadline=None)
def test_dram_is_a_flat_bytearray_and_stale_means_dma_touched(steps, seed, cpki):
    sim = Simulator()
    memory = PhysicalMemory(SMALL)
    cache = CacheModel(sim, memory, cpki=cpki, seed=seed)
    flat = bytearray(SMALL)
    base = memory.base
    dma_touched = set()  # lines a dma_write hit since their last fill / cpu_write
    bypassed = set()     # ... and lines DRAM changed under without the cache knowing
    epoch = 0
    for kind, first, fill_byte in steps:
        if kind == "advance":
            sim.run(until=sim.now + first)
            continue
        offset, length = first
        address = base + offset
        in_range = offset + length <= SMALL
        payload = bytes([fill_byte]) * length
        before = dict(cache._lines)
        flushes = cache.stats.flushes
        try:
            if kind == "cpu_read":
                assert len(cache.cpu_read(address, length)) == length
            elif kind == "flush":
                cache.flush(address, length)
            elif kind == "fill":
                memory.fill(address, length, fill_byte)
            elif kind == "write":
                memory.write(address, payload)
            else:
                getattr(cache, kind)(address, payload)
        except MemoryError_ as fault:
            assert not in_range and "outside" in str(fault)
        else:
            assert in_range or kind == "flush" or (kind, length) == ("cpu_read", 0)
            if kind in ("write", "fill", "cpu_write", "dma_write"):
                flat[offset : offset + length] = payload
                epoch += 1
                touched = set(_lines_of(address, length))
                if kind == "dma_write":
                    dma_touched |= touched
                elif kind == "cpu_write":
                    dma_touched -= touched
                    bypassed -= touched
                else:
                    bypassed |= touched
        if kind == "flush":
            dropped = before.keys() - cache._lines.keys()
            assert dropped == before.keys() & set(_lines_of(address, max(length, 0)))
            assert cache.stats.flushes == flushes + len(dropped)
        else:
            assert before.keys() <= cache._lines.keys()
        # A line object that was not there before the step was filled by it.
        filled = {
            addr for addr, line in cache._lines.items() if before.get(addr) is not line
        }
        assert not filled or kind == "cpu_read"
        dma_touched -= filled
        bypassed -= filled
        assert memory.read(base, SMALL) == flat
        assert memory.write_epoch == epoch
        for addr, line in cache._lines.items():
            if sim.now < line.evict_at:
                assert line.stale == (addr in dma_touched), (kind, hex(addr))
                if not line.stale and addr not in bypassed:
                    assert line.snapshot == flat[addr - base : addr - base + LINE]


if __name__ == "__main__":
    print("ORACLE = {")
    for shape_name in SHAPES:
        for sequence_seed in SEEDS:
            row = run_sequence(shape_name, sequence_seed)
            print(f"    ({shape_name!r}, {sequence_seed}): {row!r},")
    print("}")

"""Unit tests for the CPU cache / DMA incoherence model (Fig 5 substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import params
from repro.mem.cache import CacheModel
from repro.mem.memory import PhysicalMemory
from repro.sim.core import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    mem = PhysicalMemory(1 << 20)
    cache = CacheModel(sim, mem, cpki=5.0, seed=42)
    return sim, mem, cache


class TestBasicCoherence:
    def test_first_read_is_fresh(self, setup):
        sim, mem, cache = setup
        mem.write(mem.base, b"fresh-data")
        assert cache.cpu_read(mem.base, 10) == b"fresh-data"

    def test_cpu_write_is_write_through(self, setup):
        sim, mem, cache = setup
        cache.cpu_write(mem.base, b"written")
        assert mem.read(mem.base, 7) == b"written"
        assert cache.cpu_read(mem.base, 7) == b"written"

    def test_dma_write_goes_stale_behind_cached_line(self, setup):
        sim, mem, cache = setup
        mem.write(mem.base, b"old-value")
        cache.cpu_read(mem.base, 9)  # cache it
        cache.dma_write(mem.base, b"new-value")
        # DRAM has the new bytes; the CPU still sees the old ones.
        assert mem.read(mem.base, 9) == b"new-value"
        assert cache.cpu_read(mem.base, 9) == b"old-value"
        assert cache.is_stale(mem.base)

    def test_uncached_dma_write_visible_immediately(self, setup):
        sim, mem, cache = setup
        cache.dma_write(mem.base + 128, b"direct")
        assert cache.cpu_read(mem.base + 128, 6) == b"direct"

    def test_flush_restores_coherence(self, setup):
        sim, mem, cache = setup
        cache.cpu_read(mem.base, 8)
        cache.dma_write(mem.base, b"12345678")
        cache.flush(mem.base, 8)
        assert cache.cpu_read(mem.base, 8) == b"12345678"
        assert not cache.is_stale(mem.base)

    def test_cpu_write_refreshes_stale_line(self, setup):
        sim, mem, cache = setup
        cache.cpu_read(mem.base, 8)
        cache.dma_write(mem.base, b"AAAAAAAA")
        # CPU store to the same line pulls the whole line fresh.
        cache.cpu_write(mem.base + 8, b"B")
        assert cache.cpu_read(mem.base, 8) == b"AAAAAAAA"

    def test_dma_read_sees_dram(self, setup):
        sim, mem, cache = setup
        cache.cpu_write(mem.base, b"cpu-bytes")
        assert cache.dma_read(mem.base, 9) == b"cpu-bytes"


class TestEviction:
    def test_eviction_ends_staleness(self, setup):
        sim, mem, cache = setup
        cache.cpu_read(mem.base, 8)
        cache.dma_write(mem.base, b"newnewne")
        # Advance far beyond any plausible eviction deadline.
        sim.run(until=10_000_000)
        assert cache.cpu_read(mem.base, 8) == b"newnewne"

    def test_zero_cpki_never_evicts(self):
        sim = Simulator()
        mem = PhysicalMemory(1 << 16)
        cache = CacheModel(sim, mem, cpki=0.0, seed=1)
        cache.cpu_read(mem.base, 8)
        cache.dma_write(mem.base, b"xxxxxxxx")
        sim.run(until=100_000_000)
        assert cache.cpu_read(mem.base, 8) == bytes(8)  # still stale

    def test_higher_cpki_evicts_sooner(self):
        def staleness_duration(cpki: float) -> float:
            durations = []
            for seed in range(40):
                sim = Simulator()
                mem = PhysicalMemory(1 << 16)
                cache = CacheModel(sim, mem, cpki=cpki, seed=seed)
                cache.cpu_read(mem.base, 8)
                cache.dma_write(mem.base, b"zzzzzzzz")
                while cache.cpu_read(mem.base, 8) != b"zzzzzzzz":
                    sim.run(until=sim.now + 5)
                durations.append(sim.now)
            return sum(durations) / len(durations)

        assert staleness_duration(40.0) < staleness_duration(5.0)

    def test_cpki_validation(self, setup):
        _sim, _mem, cache = setup
        with pytest.raises(ValueError):
            cache.cpki = -1


class TestStats:
    def test_hit_miss_counting(self, setup):
        sim, mem, cache = setup
        cache.cpu_read(mem.base, 8)  # miss
        cache.cpu_read(mem.base, 8)  # hit
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_stale_hits_counted(self, setup):
        sim, mem, cache = setup
        cache.cpu_read(mem.base, 8)
        cache.dma_write(mem.base, b"qqqqqqqq")
        cache.cpu_read(mem.base, 8)
        assert cache.stats.stale_hits >= 1

    def test_flush_counted(self, setup):
        sim, mem, cache = setup
        cache.cpu_read(mem.base, 8)
        cache.flush(mem.base, 8)
        assert cache.stats.flushes == 1

    def test_flush_of_an_empty_range_is_a_no_op(self, setup):
        """Like ``cpu_read(addr, 0)``: no line, aligned or not, is under
        an empty range (it used to drop the line under ``addr``)."""
        sim, mem, cache = setup
        cache.cpu_read(mem.base + 8, 8)
        cache.dma_write(mem.base + 8, b"newbytes")
        for addr in (mem.base, mem.base + 8, mem.base + 63):
            cache.flush(addr, 0)
        assert sorted(cache._lines) == [mem.base]
        assert cache.stats.flushes == 0
        assert cache.is_stale(mem.base + 8)

    def test_flush_all(self, setup):
        sim, mem, cache = setup
        cache.cpu_read(mem.base, 8)
        cache.dma_write(mem.base, b"newbytes")
        cache.flush_all()
        assert cache.cpu_read(mem.base, 8) == b"newbytes"


class TestMultiLine:
    def test_read_spanning_lines(self, setup):
        sim, mem, cache = setup
        data = bytes(range(200))
        mem.write(mem.base, data)
        assert cache.cpu_read(mem.base, 200) == data

    def test_partial_line_staleness(self, setup):
        sim, mem, cache = setup
        line = params.CACHE_LINE_BYTES
        # Cache two lines; DMA only the second.
        cache.cpu_read(mem.base, 2 * line)
        cache.dma_write(mem.base + line, b"\xee" * line)
        view = cache.cpu_read(mem.base, 2 * line)
        assert view[:line] == bytes(line)
        assert view[line:] == bytes(line)  # stale: still zeros
        cache.flush(mem.base + line, line)
        view = cache.cpu_read(mem.base, 2 * line)
        assert view[line:] == b"\xee" * line


# -- differential against the per-line read of the parent commit ------------


class PerLineCache(CacheModel):
    """``cpu_read`` as commit a24804d had it: one ``_load_line`` per
    64-byte line, statistics bumped and the residency drawn inside it.
    The reference the one-walk read must be indistinguishable from."""

    def cpu_read(self, addr: int, n: int) -> bytes:
        out = bytearray()
        cursor = addr
        remaining = n
        while remaining > 0:
            line_addr = self._line_addr(cursor)
            offset = cursor - line_addr
            take = min(self.line_bytes - offset, remaining)
            line = self._load_line(line_addr)
            out += line.snapshot[offset : offset + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def _load_line(self, line_addr: int):
        from repro.mem.cache import _Line

        self.stats.loads += 1
        line = self._lines.get(line_addr)
        if line is not None:
            if self.sim.now < line.evict_at:
                self.stats.hits += 1
                if line.stale:
                    self.stats.stale_hits += 1
                return line
            self.stats.evictions_observed += 1
        self.stats.misses += 1
        snapshot = self.memory.read(line_addr, self.line_bytes)
        rate = self._eviction_rate()
        line = _Line(
            snapshot=snapshot,
            loaded_at=self.sim.now,
            evict_at=self.sim.now
            + (self._rng.expovariate(rate) if rate > 0 else float("inf")),
        )
        self._lines[line_addr] = line
        return line


MEMORY_BYTES = 1024  # 16 lines: every op lands near every other
LINE = params.CACHE_LINE_BYTES

_offsets = st.one_of(
    st.integers(0, MEMORY_BYTES - 1),
    st.integers(0, MEMORY_BYTES // LINE - 1).map(lambda line: line * LINE),
)
_lengths = st.one_of(
    st.integers(0, 3 * LINE),
    st.integers(1, 8).map(lambda lines: lines * LINE),
    st.just(MEMORY_BYTES),
)
_payloads = st.binary(min_size=1, max_size=2 * LINE)
_ops = st.one_of(
    st.tuples(st.just("cpu_read"), _offsets, _lengths),
    # ... ending exactly on a line boundary, from an unaligned start
    st.tuples(st.just("cpu_read_to_boundary"), _offsets, st.integers(1, 4)),
    # ... and running off the end of memory
    st.tuples(st.just("cpu_read"), st.integers(MEMORY_BYTES - 3 * LINE, MEMORY_BYTES + LINE), _lengths),
    st.tuples(st.just("cpu_write"), _offsets, _payloads),
    st.tuples(st.just("dma_write"), _offsets, _payloads),
    st.tuples(st.just("flush"), _offsets, _lengths),
    st.tuples(st.just("advance"), st.sampled_from((0.5, 100.0, 1_000.0, 50_000.0)), st.none()),
    st.tuples(st.just("cpki"), st.sampled_from((0.0, 0.5, 5.0, 40.0)), st.none()),
)


def _apply(sim, memory, cache, step):
    """Run one step; what it returned, or the exception it raised."""
    from repro.errors import MemoryError_

    kind, first, second = step
    address = memory.base + first if kind not in ("advance", "cpki") else None
    try:
        if kind == "cpu_read":
            return cache.cpu_read(address, second)
        if kind == "cpu_read_to_boundary":
            end = (address // LINE + second) * LINE
            return cache.cpu_read(address, end - address)
        if kind == "advance":
            return sim.run(until=sim.now + first)
        if kind == "cpki":
            cache.cpki = first
            return None
        return getattr(cache, kind)(address, second)
    except MemoryError_ as fault:
        return type(fault), str(fault)


def _state(cache):
    return (
        cache.stats,
        {
            addr: (line.snapshot, line.loaded_at, line.evict_at, line.stale)
            for addr, line in cache._lines.items()
        },
    )


class TestReadMatchesPerLineModel:
    @given(
        st.lists(_ops, max_size=40),
        st.integers(0, 2**32),
        st.sampled_from((0.0, 5.0, 40.0)),
    )
    @settings(deadline=None)
    def test_same_bytes_stats_lines_and_rng(self, steps, seed, cpki):
        beds = []
        for model in (CacheModel, PerLineCache):
            sim = Simulator()
            memory = PhysicalMemory(MEMORY_BYTES)
            memory.write(memory.base, bytes(range(256)) * (MEMORY_BYTES // 256))
            beds.append((sim, memory, model(sim, memory, cpki=cpki, seed=seed)))
        for step in steps:
            new, old = (_apply(*bed, step) for bed in beds)
            assert new == old, step
            assert _state(beds[0][2]) == _state(beds[1][2]), step
        assert beds[0][2]._rng.random() == beds[1][2]._rng.random()

    def test_read_off_the_end_loads_the_lines_before_it(self):
        """Named case of the property: the fault comes after the lines
        in range were filled, counted and given their deadlines."""
        from repro.errors import MemoryError_

        sim = Simulator()
        memory = PhysicalMemory(MEMORY_BYTES)
        cache = CacheModel(sim, memory, cpki=5.0, seed=3)
        with pytest.raises(MemoryError_, match="outside"):
            cache.cpu_read(memory.end - 2 * LINE - 5, 4 * LINE)
        assert sorted(cache._lines) == [memory.end - 3 * LINE, memory.end - 2 * LINE, memory.end - LINE]
        assert (cache.stats.loads, cache.stats.misses, cache.stats.hits) == (4, 4, 0)

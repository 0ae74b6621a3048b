"""Map semantics + serialization tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import XStateError
from repro.ebpf.maps import BPF_EXIST, BPF_NOEXIST, BpfMap, MapType


def key(i: int) -> bytes:
    return i.to_bytes(4, "little")


def value(i: int) -> bytes:
    return i.to_bytes(8, "little")


class TestHashMap:
    def test_lookup_missing(self):
        assert BpfMap(MapType.HASH, 4, 8, 4).lookup(key(1)) is None

    def test_update_lookup(self):
        m = BpfMap(MapType.HASH, 4, 8, 4)
        assert m.update(key(1), value(10)) == 0
        assert m.lookup(key(1)) == value(10)

    def test_delete(self):
        m = BpfMap(MapType.HASH, 4, 8, 4)
        m.update(key(1), value(10))
        assert m.delete(key(1)) == 0
        assert m.lookup(key(1)) is None
        assert m.delete(key(1)) == -2  # ENOENT

    def test_noexist_flag(self):
        m = BpfMap(MapType.HASH, 4, 8, 4)
        assert m.update(key(1), value(1), BPF_NOEXIST) == 0
        assert m.update(key(1), value(2), BPF_NOEXIST) == -17  # EEXIST

    def test_exist_flag(self):
        m = BpfMap(MapType.HASH, 4, 8, 4)
        assert m.update(key(1), value(1), BPF_EXIST) == -2
        m.update(key(1), value(1))
        assert m.update(key(1), value(2), BPF_EXIST) == 0

    def test_capacity_limit(self):
        m = BpfMap(MapType.HASH, 4, 8, 2)
        m.update(key(1), value(1))
        m.update(key(2), value(2))
        assert m.update(key(3), value(3)) == -7  # E2BIG
        # Replacing an existing key is still fine.
        assert m.update(key(1), value(9)) == 0

    def test_bad_key_size(self):
        m = BpfMap(MapType.HASH, 4, 8, 2)
        with pytest.raises(XStateError):
            m.lookup(b"\x01")

    def test_bad_value_size(self):
        m = BpfMap(MapType.HASH, 4, 8, 2)
        with pytest.raises(XStateError):
            m.update(key(1), b"short")


class TestArrayMap:
    def test_preinitialized_zero(self):
        m = BpfMap(MapType.ARRAY, 4, 8, 4)
        assert m.lookup(key(0)) == bytes(8)
        assert len(m) == 4

    def test_index_bounds(self):
        m = BpfMap(MapType.ARRAY, 4, 8, 4)
        with pytest.raises(XStateError):
            m.lookup(key(4))

    def test_delete_rejected(self):
        m = BpfMap(MapType.ARRAY, 4, 8, 4)
        assert m.delete(key(0)) == -22  # EINVAL

    def test_requires_u32_keys(self):
        with pytest.raises(XStateError):
            BpfMap(MapType.ARRAY, 8, 8, 4)

    def test_percpu_values(self):
        m = BpfMap(MapType.PERCPU_ARRAY, 4, 8, 2, n_cpus=4)
        assert len(m.lookup(key(0))) == 32
        m.update(key(0), bytes(range(32)))
        assert m.lookup(key(0)) == bytes(range(32))


class TestGeometryValidation:
    def test_positive_sizes(self):
        with pytest.raises(XStateError):
            BpfMap(MapType.HASH, 0, 8, 4)
        with pytest.raises(XStateError):
            BpfMap(MapType.HASH, 4, 8, 0)


class TestSerialization:
    def test_image_size(self):
        m = BpfMap(MapType.HASH, 4, 8, 16)
        assert m.image_bytes() == (8 + 4 + 8) * 16
        assert len(m.serialize()) == m.image_bytes()

    def test_roundtrip(self):
        m = BpfMap(MapType.HASH, 4, 8, 8)
        for i in range(5):
            m.update(key(i), value(i * 100))
        rebuilt = BpfMap.deserialize(m.serialize(), MapType.HASH, 4, 8, 8)
        for i in range(5):
            assert rebuilt.lookup(key(i)) == value(i * 100)
        assert rebuilt.lookup(key(7)) is None

    def test_roundtrip_array(self):
        m = BpfMap(MapType.ARRAY, 4, 8, 4)
        m.update(key(2), value(42))
        rebuilt = BpfMap.deserialize(m.serialize(), MapType.ARRAY, 4, 8, 4)
        assert rebuilt.lookup(key(2)) == value(42)

    def test_bad_image_size(self):
        with pytest.raises(XStateError):
            BpfMap.deserialize(b"\x00" * 10, MapType.HASH, 4, 8, 8)

    @given(
        st.dictionaries(
            st.integers(0, 200),
            st.integers(0, (1 << 64) - 1),
            max_size=16,
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_property(self, entries):
        m = BpfMap(MapType.HASH, 4, 8, 32)
        for k, v in entries.items():
            m.update(key(k), value(v))
        rebuilt = BpfMap.deserialize(m.serialize(), MapType.HASH, 4, 8, 32)
        for k, v in entries.items():
            assert rebuilt.lookup(key(k)) == value(v)
        assert len(rebuilt) == len(entries)

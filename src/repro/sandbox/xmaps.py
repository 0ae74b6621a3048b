"""Memory-backed maps: XState whose truth lives in sandbox DRAM.

A :class:`MemoryBackedMap` has the same geometry and interface as
:class:`~repro.ebpf.maps.BpfMap` but stores its slots in host memory,
so the remote control plane can read/update entries with one-sided
RDMA while local extensions access them through the CPU/cache --
concurrent access mediated by RDX's sync primitives (§3.4-§3.5).

Slot layout matches ``BpfMap.serialize``:
``[used u8][pad 7][key][value*n_cpus]`` per slot.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import XStateError
from repro.ebpf.maps import BPF_ANY, BPF_EXIST, BPF_NOEXIST, BpfMap, MapType
from repro.mem.cache import CacheModel

_SLOT_HEADER = 8


class MemoryBackedMap(BpfMap):
    """A BpfMap whose slots live at ``base_addr`` in host memory.

    CPU-side operations (extension execution, agent polling) go through
    the cache model; the DMA side simply addresses the same bytes.
    """

    def __init__(
        self,
        cache: CacheModel,
        base_addr: int,
        map_type: MapType,
        key_size: int,
        value_size: int,
        max_entries: int,
        name: str = "",
        n_cpus: int = 1,
        initialize: bool = True,
    ):
        super().__init__(map_type, key_size, value_size, max_entries, name, n_cpus)
        self.cache = cache
        self.base_addr = base_addr
        # The dict-based storage of the parent is unused.
        self._slots.clear()
        if initialize:
            # Zero the backing memory to match a fresh map.
            self.cache.memory.fill(base_addr, self.image_bytes(), 0)
            if map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
                for index in range(max_entries):
                    self._write_slot(index, index.to_bytes(4, "little"),
                                     bytes(value_size * self.n_cpus))

    @staticmethod
    def geometry_size(
        key_size: int, value_size: int, max_entries: int, n_cpus: int = 1
    ) -> int:
        """Bytes of backing memory a map of this geometry needs."""
        return (_SLOT_HEADER + key_size + value_size * n_cpus) * max_entries

    # -- slot IO ----------------------------------------------------------

    def _slot_addr(self, index: int) -> int:
        return self.base_addr + index * self.slot_bytes()

    def _read_slot(self, index: int) -> tuple[bool, bytes, bytes]:
        raw = self.cache.cpu_read(self._slot_addr(index), self.slot_bytes())
        used = bool(raw[0])
        key = raw[_SLOT_HEADER : _SLOT_HEADER + self.key_size]
        value = raw[_SLOT_HEADER + self.key_size :]
        return used, bytes(key), bytes(value)

    def _write_slot(self, index: int, key: bytes, value: bytes) -> None:
        data = b"\x01" + bytes(7) + key + value
        self.cache.cpu_write(self._slot_addr(index), data)

    def _clear_slot(self, index: int) -> None:
        self.cache.cpu_write(self._slot_addr(index), bytes(self.slot_bytes()))

    def _find(self, key: bytes) -> Optional[int]:
        if self.map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
            index = int.from_bytes(key, "little")
            return index if index < self.max_entries else None
        for index in range(self.max_entries):
            used, slot_key, _value = self._read_slot(index)
            if used and slot_key == key:
                return index
        return None

    def _find_free(self) -> Optional[int]:
        for index in range(self.max_entries):
            used, _key, _value = self._read_slot(index)
            if not used:
                return index
        return None

    # -- BpfMap interface --------------------------------------------------

    def __len__(self) -> int:
        return sum(
            1 for index in range(self.max_entries) if self._read_slot(index)[0]
        )

    def lookup(self, key: bytes) -> Optional[bytes]:
        key = self._check_key(key)
        index = self._find(key)
        if index is None:
            return None
        used, _slot_key, value = self._read_slot(index)
        if not used:
            return None
        return value

    def update(self, key: bytes, value: bytes, flags: int = BPF_ANY) -> int:
        key = self._check_key(key)
        expected = self.value_size * self.n_cpus
        if len(value) != expected:
            raise XStateError(f"{self.name}: value size {len(value)} != {expected}")
        index = self._find(key)
        exists = index is not None and self._read_slot(index)[0]
        if flags == BPF_NOEXIST and exists:
            return -17
        if flags == BPF_EXIST and not exists:
            return -2
        if index is None or (not exists and self.map_type is MapType.HASH):
            index = index if index is not None else self._find_free()
            if index is None:
                return -7
        self._write_slot(index, key, value)
        return 0

    def delete(self, key: bytes) -> int:
        key = self._check_key(key)
        if self.map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
            return -22
        index = self._find(key)
        if index is None:
            return -2
        self._clear_slot(index)
        return 0

    def serialize(self) -> bytes:
        """Snapshot straight from DRAM (what a remote READ returns)."""
        return self.cache.memory.read(self.base_addr, self.image_bytes())

"""eBPF maps -- the canonical XState (paper §3.4).

Maps have a fixed key/value size and a maximum entry count, so they
serialize to a flat memory image: ``[slot_used:u8 pad:7][key][value]``
per slot.  That flat layout is what RDX's XState machinery allocates
from the remote scratchpad and accesses via one-sided RDMA.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.errors import XStateError

#: Process-wide: a map is built with its program, before any simulation.
_map_ids = itertools.count(1)

#: bpf_map_update_elem flags (kernel ABI).
BPF_ANY = 0
BPF_NOEXIST = 1
BPF_EXIST = 2

_SLOT_HEADER = 8  # used flag + padding


class MapType(enum.Enum):
    HASH = "hash"
    ARRAY = "array"
    PERCPU_ARRAY = "percpu_array"


class BpfMap:
    """A fixed-geometry key/value map."""

    def __init__(
        self,
        map_type: MapType,
        key_size: int,
        value_size: int,
        max_entries: int,
        name: str = "",
        n_cpus: int = 1,
    ):
        if key_size <= 0 or value_size <= 0 or max_entries <= 0:
            raise XStateError("map geometry must be positive")
        if map_type is MapType.ARRAY and key_size != 4:
            raise XStateError("array maps require 4-byte keys")
        self.map_id = next(_map_ids)
        self.map_type = map_type
        self.key_size = key_size
        self.value_size = value_size
        self.max_entries = max_entries
        self.n_cpus = n_cpus if map_type is MapType.PERCPU_ARRAY else 1
        self.name = name or f"map{self.map_id}"
        self._slots: dict[bytes, bytes] = {}
        if map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
            zero = bytes(value_size * self.n_cpus)
            for index in range(max_entries):
                self._slots[index.to_bytes(4, "little")] = zero

    def __len__(self) -> int:
        return len(self._slots)

    def _check_key(self, key: bytes) -> bytes:
        if len(key) != self.key_size:
            raise XStateError(
                f"{self.name}: key size {len(key)} != {self.key_size}"
            )
        if self.map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
            index = int.from_bytes(key, "little")
            if index >= self.max_entries:
                raise XStateError(f"{self.name}: array index {index} out of range")
        return bytes(key)

    def lookup(self, key: bytes) -> bytes | None:
        """Return the value bytes, or None when absent."""
        return self._slots.get(self._check_key(key))

    def update(self, key: bytes, value: bytes, flags: int = BPF_ANY) -> int:
        """Insert/replace; returns 0 on success, negative errno style."""
        key = self._check_key(key)
        expected = self.value_size * self.n_cpus
        if len(value) != expected:
            raise XStateError(
                f"{self.name}: value size {len(value)} != {expected}"
            )
        exists = key in self._slots
        if flags == BPF_NOEXIST and exists:
            return -17  # -EEXIST
        if flags == BPF_EXIST and not exists:
            return -2  # -ENOENT
        if (
            not exists
            and self.map_type is MapType.HASH
            and len(self._slots) >= self.max_entries
        ):
            return -7  # -E2BIG
        self._slots[key] = bytes(value)
        return 0

    def delete(self, key: bytes) -> int:
        key = self._check_key(key)
        if self.map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
            return -22  # -EINVAL: array entries cannot be deleted
        if self._slots.pop(key, None) is None:
            return -2  # -ENOENT
        return 0

    def keys(self) -> list[bytes]:
        return list(self._slots.keys())

    # -- flat image (XState serialization) ---------------------------------

    def slot_bytes(self) -> int:
        """Serialized size of one slot."""
        return _SLOT_HEADER + self.key_size + self.value_size * self.n_cpus

    def image_bytes(self) -> int:
        """Total serialized size (the XState allocation size)."""
        return self.slot_bytes() * self.max_entries

    def serialize(self) -> bytes:
        """Flatten to the XState wire/memory image."""
        out = bytearray()
        entries = list(self._slots.items())
        for index in range(self.max_entries):
            if index < len(entries):
                key, value = entries[index]
                out += b"\x01" + bytes(7) + key + value
            else:
                out += bytes(self.slot_bytes())
        return bytes(out)

    @classmethod
    def deserialize(
        cls,
        data: bytes,
        map_type: MapType,
        key_size: int,
        value_size: int,
        max_entries: int,
        name: str = "",
        n_cpus: int = 1,
    ) -> "BpfMap":
        """Rebuild a map from its flat image."""
        bpf_map = cls(map_type, key_size, value_size, max_entries, name, n_cpus)
        if map_type in (MapType.ARRAY, MapType.PERCPU_ARRAY):
            bpf_map._slots.clear()
        slot = bpf_map.slot_bytes()
        if len(data) != slot * max_entries:
            raise XStateError(
                f"image size {len(data)} != {slot * max_entries} for {name!r}"
            )
        for index in range(max_entries):
            chunk = data[index * slot : (index + 1) * slot]
            if chunk[0]:
                key = chunk[_SLOT_HEADER : _SLOT_HEADER + key_size]
                value = chunk[_SLOT_HEADER + key_size :]
                bpf_map._slots[bytes(key)] = bytes(value)
        return bpf_map

"""Serialized extension metadata blocks (`struct bpf_program` analogue).

§3.1: an extension is code *plus* a descriptor of 30+ fields.  The
``ctx_init`` stub preloads empty descriptors ("empty extensions at
locations of interest") so the remote control plane only has to fill
slots, never to conjure layout from thin air.

Each slot is a fixed 256-byte block::

    [state u32][prog_id u32][insn_cnt u32][ref_count u32]
    [code_addr u64][code_len u32][hook_slot i32]
    [xstate_addr u64][version u32][prog_type u8][flags u8][pad 2]
    [tag 16s][name 64s] ... zero padding to 256
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import SandboxError
from repro.mem.memory import PhysicalMemory

METADATA_SLOT_BYTES = 256

#: Slot lifecycle states.
SLOT_EMPTY = 0
SLOT_LOADING = 1
SLOT_LIVE = 2
SLOT_DETACHED = 3

_FIXED = struct.Struct("<IIIIQIiQIBB2x16s64s")


@dataclass
class MetadataBlock:
    """Decoded view of one descriptor slot."""

    state: int = SLOT_EMPTY
    prog_id: int = 0
    insn_cnt: int = 0
    ref_count: int = 0
    code_addr: int = 0
    code_len: int = 0
    hook_slot: int = -1
    xstate_addr: int = 0
    version: int = 0
    prog_type: int = 0
    flags: int = 0
    tag: bytes = b"\x00" * 16
    name: str = ""

    def encode(self) -> bytes:
        packed = _FIXED.pack(
            self.state,
            self.prog_id,
            self.insn_cnt,
            self.ref_count,
            self.code_addr,
            self.code_len,
            self.hook_slot,
            self.xstate_addr,
            self.version,
            self.prog_type,
            self.flags,
            self.tag[:16].ljust(16, b"\x00"),
            self.name.encode()[:64].ljust(64, b"\x00"),
        )
        return packed.ljust(METADATA_SLOT_BYTES, b"\x00")

    @classmethod
    def decode(cls, data: bytes) -> "MetadataBlock":
        if len(data) < _FIXED.size:
            raise SandboxError("metadata block too short")
        (
            state,
            prog_id,
            insn_cnt,
            ref_count,
            code_addr,
            code_len,
            hook_slot,
            xstate_addr,
            version,
            prog_type,
            flags,
            tag,
            name,
        ) = _FIXED.unpack_from(data)
        return cls(
            state=state,
            prog_id=prog_id,
            insn_cnt=insn_cnt,
            ref_count=ref_count,
            code_addr=code_addr,
            code_len=code_len,
            hook_slot=hook_slot,
            xstate_addr=xstate_addr,
            version=version,
            prog_type=prog_type,
            flags=flags,
            tag=tag,
            name=name.rstrip(b"\x00").decode(errors="replace"),
        )


class MetadataArray:
    """The descriptor array in sandbox memory."""

    def __init__(self, memory: PhysicalMemory, base_addr: int, slots: int = 64):
        self.memory = memory
        self.base_addr = base_addr
        self.slots = slots

    def slot_addr(self, index: int) -> int:
        if not 0 <= index < self.slots:
            raise SandboxError(f"metadata slot {index} out of range")
        return self.base_addr + index * METADATA_SLOT_BYTES

    def read(self, index: int) -> MetadataBlock:
        return MetadataBlock.decode(
            self.memory.read(self.slot_addr(index), METADATA_SLOT_BYTES)
        )

    def write(self, index: int, block: MetadataBlock) -> None:
        self.memory.write(self.slot_addr(index), block.encode())

    def init_empty(self) -> None:
        """ctx_init: preload every slot with an empty descriptor."""
        empty = MetadataBlock().encode()
        for index in range(self.slots):
            self.memory.write(self.slot_addr(index), empty)

    def find_free(self) -> Optional[int]:
        """First reusable slot (never written, or detached)."""
        for index in range(self.slots):
            if self.read(index).state in (SLOT_EMPTY, SLOT_DETACHED):
                return index
        return None

    def find_by_prog_id(self, prog_id: int) -> Optional[int]:
        for index in range(self.slots):
            block = self.read(index)
            if block.state != SLOT_EMPTY and block.prog_id == prog_id:
                return index
        return None

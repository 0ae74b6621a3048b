"""The sandbox's global offset table (GOT) and symbol context.

JIT-compiled extensions reference host-local entities -- helper
functions, maps, global variables -- whose addresses differ per host.
The GOT maps symbol names to local addresses; its serialized form (a
qword array in sandbox memory) is what ``rdx_create_codeflow`` reads
so the remote control plane can link binaries accurately (§3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import LinkError
from repro.mem.layout import pack_qword, unpack_qword
from repro.mem.memory import PhysicalMemory


class SymbolKind(enum.Enum):
    HELPER = "helper"
    MAP = "map"
    GLOBAL = "global"


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: SymbolKind
    address: int
    #: For helpers: the helper id.  For maps: the live map slot.
    token: int = 0


class GlobalContext:
    """Symbol table + backing qword array in sandbox memory.

    The name->index mapping (the "layout") is static per sandbox build
    and shared with the control plane once, at CodeFlow creation; the
    *addresses* live in memory and are readable over RDMA at any time.
    """

    def __init__(self, memory: PhysicalMemory, base_addr: int, capacity: int = 512):
        self.memory = memory
        self.base_addr = base_addr
        self.capacity = capacity
        self._symbols: dict[str, Symbol] = {}
        self._index: dict[str, int] = {}
        self._by_address: dict[int, Symbol] = {}

    def define(self, name: str, kind: SymbolKind, address: int, token: int = 0) -> Symbol:
        """Add (or re-point) a symbol and persist its address qword."""
        if name in self._index:
            index = self._index[name]
            old = self._symbols[name]
            self._by_address.pop(old.address, None)
        else:
            if len(self._index) >= self.capacity:
                raise LinkError("GOT full")
            index = len(self._index)
            self._index[name] = index
        symbol = Symbol(name=name, kind=kind, address=address, token=token)
        self._symbols[name] = symbol
        self._by_address[address] = symbol
        self.memory.write(self.base_addr + index * 8, pack_qword(address))
        return symbol

    def undefine(self, name: str) -> None:
        """Drop a symbol (its GOT slot is zeroed, index retained)."""
        symbol = self._symbols.pop(name, None)
        if symbol is None:
            raise LinkError(f"undefine of unknown symbol {name!r}")
        self._by_address.pop(symbol.address, None)
        index = self._index[name]
        self.memory.write(self.base_addr + index * 8, pack_qword(0))

    def lookup(self, name: str) -> Optional[Symbol]:
        return self._symbols.get(name)

    def address_of(self, name: str) -> int:
        symbol = self._symbols.get(name)
        if symbol is None:
            raise LinkError(f"undefined symbol {name!r}")
        return symbol.address

    def symbol_at(self, address: int) -> Optional[Symbol]:
        """Reverse lookup used when decoding linked binaries."""
        return self._by_address.get(address)

    def layout(self) -> dict[str, int]:
        """name -> GOT index; the static part shared with the control plane."""
        return dict(self._index)

    def read_remote_qword(self, index: int) -> int:
        """Interpret one GOT slot as the control plane would via RDMA."""
        return unpack_qword(self.memory.read(self.base_addr + index * 8, 8))

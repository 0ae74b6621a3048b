"""The hook table: named attach points holding code pointers.

Each slot is one qword in sandbox memory: the address of the installed
extension's code image (0 = empty).  Slot updates are single-qword
writes, which is what makes ``rdx_tx``'s CAS visibility flip atomic
from the data path's perspective (§3.5): the big code image lands
first, elsewhere; the qword swap is the commit point.

Data-path reads go through the host *cache*, so a freshly swapped
pointer may not be observed until eviction or an explicit flush --
exactly Fig 5's incoherence window.
"""

from __future__ import annotations

from repro.errors import SandboxError
from repro.mem.cache import CacheModel
from repro.mem.layout import pack_qword, unpack_qword


class HookTable:
    """Fixed array of hook slots in sandbox memory."""

    def __init__(self, cache: CacheModel, base_addr: int, slots: int):
        self.cache = cache
        self.base_addr = base_addr
        self.slots = slots
        self._names: dict[str, int] = {}

    def declare(self, hook_name: str) -> int:
        """Reserve a slot for ``hook_name``; returns its index."""
        if hook_name in self._names:
            return self._names[hook_name]
        if len(self._names) >= self.slots:
            raise SandboxError("hook table full")
        index = len(self._names)
        self._names[hook_name] = index
        return index

    def slot_index(self, hook_name: str) -> int:
        try:
            return self._names[hook_name]
        except KeyError:
            raise SandboxError(f"unknown hook {hook_name!r}") from None

    def slot_addr(self, hook_name: str) -> int:
        """The memory address of the hook's pointer qword."""
        return self.base_addr + self.slot_index(hook_name) * 8

    def names(self) -> dict[str, int]:
        return dict(self._names)

    # -- CPU-side access (data path) --------------------------------------

    def read_pointer(self, hook_name: str) -> int:
        """Data-path read of a hook pointer -- through the cache."""
        data = self.cache.cpu_read(self.slot_addr(hook_name), 8)
        return unpack_qword(data)

    def write_pointer(self, hook_name: str, code_addr: int) -> None:
        """Local (agent-path) update of a hook pointer -- via the CPU."""
        self.cache.cpu_write(self.slot_addr(hook_name), pack_qword(code_addr))

    # -- DRAM truth (assertions / remote side) -----------------------------

    def pointer_in_dram(self, hook_name: str) -> int:
        return unpack_qword(self.cache.memory.read(self.slot_addr(hook_name), 8))

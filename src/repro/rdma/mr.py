"""Protection domains and registered memory regions (ibv_pd / ibv_mr)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.errors import ProtectionError, RdmaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class AccessFlags(enum.IntFlag):
    """Subset of IBV_ACCESS_* flags the simulator enforces."""

    LOCAL_WRITE = 1
    REMOTE_READ = 2
    REMOTE_WRITE = 4
    REMOTE_ATOMIC = 8


@dataclass(frozen=True)
class MemoryRegionMr:
    """A registered window of host memory, addressable by rkey."""

    addr: int
    length: int
    lkey: int
    rkey: int
    #: The granted :class:`AccessFlags` bits, as a plain int: the RNIC
    #: checks them per WR, and an ``IntFlag`` operator is a Python call.
    access: int
    pd_handle: int


class ProtectionDomain:
    """An isolation scope for MRs and QPs (ibv_pd)."""

    def __init__(self, sim: "Simulator", device_name: str):
        self.handle = next(sim.ids.pd)
        self.device_name = device_name
        self._keys = sim.ids.key
        self._mrs: dict[int, MemoryRegionMr] = {}

    def reg_mr(self, addr: int, length: int, access: AccessFlags) -> MemoryRegionMr:
        """Register [addr, addr+length) with the given access flags."""
        if length <= 0:
            raise RdmaError("MR length must be positive")
        mr = MemoryRegionMr(
            addr=addr,
            length=length,
            lkey=next(self._keys),
            rkey=next(self._keys),
            access=int(access),
            pd_handle=self.handle,
        )
        self._mrs[mr.rkey] = mr
        return mr

    def dereg_mr(self, mr: MemoryRegionMr) -> None:
        if self._mrs.pop(mr.rkey, None) is None:
            raise RdmaError(f"MR rkey={mr.rkey:#x} not registered")

    def lookup_rkey(self, rkey: int) -> Optional[MemoryRegionMr]:
        return self._mrs.get(rkey)

    def check_remote(self, rkey: int, addr: int, n: int, need: int) -> None:
        """Validate a remote access of ``n`` bytes at ``addr``: ``rkey``
        names an MR of this domain, the range lies inside it, and it
        grants the ``need`` bits (:class:`AccessFlags`).  The RNIC's one
        protection call per WR, all int arithmetic."""
        mr = self._mrs.get(rkey)
        if mr is None:
            raise ProtectionError(f"rkey {rkey:#x} unknown at target")
        if addr < mr.addr or addr + n > mr.addr + mr.length:
            raise ProtectionError(
                f"remote access [{addr:#x},+{n}) outside MR "
                f"[{mr.addr:#x},+{mr.length})"
            )
        missing = need & ~mr.access
        if missing:
            raise ProtectionError(
                f"MR rkey={mr.rkey:#x} lacks {AccessFlags(missing)!r}"
            )

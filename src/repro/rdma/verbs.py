"""The user-facing verbs API (ibv_open_device and friends).

Typical use::

    ctx = open_device(host)                      # ibv_open_device
    pd = ctx.alloc_pd()                          # ibv_alloc_pd
    mr = pd.reg_mr(addr, length, AccessFlags.REMOTE_WRITE | ...)
    cq = ctx.create_cq()
    qp = ctx.create_qp(pd, cq)
    connect_qps(qp_a, qp_b)                      # out-of-band exchange
    completion = yield qp.post_send(WorkRequest(...))
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RdmaError
from repro.net.topology import Host
from repro.rdma.cq import CompletionQueue
from repro.rdma.mr import AccessFlags, ProtectionDomain
from repro.rdma.qp import QpState, QueuePair
from repro.rdma.rnic import Rnic


class VerbsContext:
    """Per-host device context (ibv_context)."""

    def __init__(self, rnic: Rnic):
        self.rnic = rnic
        self.host = rnic.host
        self._pds: list[ProtectionDomain] = []
        self._qps: list[QueuePair] = []

    def alloc_pd(self) -> ProtectionDomain:
        pd = ProtectionDomain(self.rnic.sim, self.rnic.name)
        self._pds.append(pd)
        return pd

    def create_cq(self, depth: int = 4096) -> CompletionQueue:
        return CompletionQueue(self.rnic.sim, depth=depth)

    def create_qp(self, pd: ProtectionDomain, cq: CompletionQueue) -> QueuePair:
        if pd.device_name != self.rnic.name:
            raise RdmaError(
                f"PD belongs to device {pd.device_name!r}, not {self.rnic.name!r}"
            )
        qp = QueuePair(self.rnic, pd, cq)
        qp.modify(QpState.INIT)
        self._qps.append(qp)
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        """ibv_destroy_qp: drain to RESET and sever the connection."""
        if qp not in self._qps:
            raise RdmaError("QP does not belong to this context")
        if qp.state is not QpState.RESET:
            qp.modify(QpState.RESET)
        if qp.remote is not None and qp.remote.remote is qp:
            qp.remote.remote = None
        qp.remote = None
        self._qps.remove(qp)

    @property
    def qp_count(self) -> int:
        return len(self._qps)


def open_device(host: Host) -> VerbsContext:
    """Open (creating if needed) the host's RNIC and return a context."""
    if host.nic is None:
        Rnic(host)
    assert host.nic is not None
    return VerbsContext(host.nic)


def connect_qps(a: QueuePair, b: QueuePair) -> None:
    """Wire two INIT-state QPs into a reliable connection (RTR->RTS).

    Stands in for the out-of-band QP-number/GID exchange real
    deployments do over TCP or RDMA-CM.
    """
    if a.remote is not None or b.remote is not None:
        raise RdmaError("QP already connected")
    a.remote = b
    b.remote = a
    for qp in (a, b):
        qp.modify(QpState.RTR)
        qp.modify(QpState.RTS)

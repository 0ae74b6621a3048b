"""Reliable-connected queue pairs and work requests (ibv_qp / ibv_wr)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, TYPE_CHECKING

from repro.errors import RdmaError
from repro.rdma.cq import CompletionQueue
from repro.rdma.mr import ProtectionDomain

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdma.rnic import Rnic


class QpState(enum.Enum):
    """The RC QP state machine (RESET -> INIT -> RTR -> RTS -> ERROR)."""

    RESET = "reset"
    INIT = "init"
    RTR = "rtr"  # ready to receive
    RTS = "rts"  # ready to send
    ERROR = "error"


class WrOpcode(enum.Enum):
    """Work-request opcodes the simulator implements."""

    RDMA_WRITE = "write"
    RDMA_READ = "read"
    COMP_SWAP = "cas"
    FETCH_ADD = "fetch_add"
    SEND = "send"

    def __init__(self, label: str):
        #: The value (the completion's opcode string) and the WQE
        #: process name as plain attributes, bound once per member: the
        #: RNIC reads them per WR, and the enum ``value`` descriptor is
        #: a Python call.
        self.label = label
        self.wqe_name = f"wqe:{label}"


@dataclass
class WorkRequest:
    """One posted work request.

    For WRITE/SEND, ``data`` carries the payload bytes.  For READ,
    ``length`` names how many bytes to fetch.  For atomics, ``compare``
    / ``swap_or_add`` are the 64-bit operands and the target must be an
    8-byte-aligned qword.
    """

    opcode: WrOpcode
    remote_addr: int = 0
    rkey: int = 0
    data: bytes = b""
    length: int = 0
    compare: int = 0
    swap_or_add: int = 0
    #: When True the RNIC orders this WR after all prior WRs (fence).
    fence: bool = False
    #: The caller's tag, echoed in the completion (ibv_send_wr.wr_id).
    #: A WR the hb graph tracks needs a distinct one: the sync layer
    #: mints ``next(sim.ids.wr)``.
    wr_id: int = 0
    #: Happens-before annotations attached by the sync layer when
    #: ``config.hb_check`` is on (epoch tag, control-word
    #: label, transaction id, published range).  ``None`` in normal
    #: runs; the RNIC copies it into the ``hb.*`` trace events.
    hb: Optional[dict] = None


class QueuePair:
    """One side of a reliable connection.

    Created through :class:`~repro.rdma.verbs.VerbsContext`; wired to a
    peer with :func:`~repro.rdma.verbs.connect_qps`.
    """

    def __init__(self, rnic: "Rnic", pd: ProtectionDomain, cq: CompletionQueue):
        self.rnic = rnic
        self.pd = pd
        self.cq = cq
        self.qpn = next(rnic.sim.ids.qpn)
        #: Creation ordinal *within this RNIC*: unlike ``qpn`` (one
        #: stream per simulation), it names a QP by its host, which is
        #: the identity schedule-fuzz decision tapes key on.
        self.ordinal = rnic.qps_created
        rnic.qps_created += 1
        self.state = QpState.RESET
        self.remote: Optional["QueuePair"] = None
        self.posted = 0
        self.completed = 0
        #: Receive buffers posted for two-sided SENDs.
        self.recv_queue: list[tuple[int, int]] = []  # (addr, length)

    def __repr__(self) -> str:
        return f"QP(qpn={self.qpn:#x}, state={self.state.value})"

    def fuzz_site(self, stage: str) -> str:
        """A stable schedule-fuzz site key for this QP's ``stage``
        choice point, e.g. ``"rnic.service:h0.rnic.q1"``."""
        return f"{stage}:{self.rnic.name}.q{self.ordinal}"

    def modify(self, state: QpState) -> None:
        """Advance the state machine, validating legal transitions."""
        legal = {
            QpState.RESET: {QpState.INIT, QpState.ERROR},
            QpState.INIT: {QpState.RTR, QpState.ERROR, QpState.RESET},
            QpState.RTR: {QpState.RTS, QpState.ERROR, QpState.RESET},
            QpState.RTS: {QpState.ERROR, QpState.RESET},
            QpState.ERROR: {QpState.RESET},
        }
        if state not in legal[self.state]:
            raise RdmaError(f"illegal QP transition {self.state} -> {state}")
        self.state = state

    def post_recv(self, addr: int, length: int) -> None:
        """Post a receive buffer for an incoming SEND."""
        self.recv_queue.append((addr, length))

    def post_send(self, wr: WorkRequest):
        """Hand a work request to the RNIC; completion lands in ``cq``.

        Returns the event that fires when the completion is generated
        (convenience mirroring ibv_post_send + poll).
        """
        if self.state not in (QpState.RTS, QpState.ERROR):
            raise RdmaError(f"post_send on QP in state {self.state}")
        if self.remote is None:
            raise RdmaError("QP has no connected peer")
        # Posting to an ERROR-state QP is allowed; the RNIC flushes the
        # WR with WR_FLUSH_ERROR (ibverbs semantics).
        self.posted += 1
        return self.rnic.submit(self, wr)

    def post_send_batch(self, wrs: "list[WorkRequest]"):
        """Post a chained WR list: one doorbell, one signaled completion.

        Selective signaling -- only the last WR generates a CQE
        (``Completion.chained`` counts the whole batch).  The RNIC
        services the chain as one pipelined stream; a failure mid-chain
        surfaces in the single completion and the remaining WRs never
        execute (chunks already landed stay landed).  Returns the event
        that fires with that completion.
        """
        if not wrs:
            raise RdmaError("post_send_batch of empty WR list")
        if self.state not in (QpState.RTS, QpState.ERROR):
            raise RdmaError(f"post_send_batch on QP in state {self.state}")
        if self.remote is None:
            raise RdmaError("QP has no connected peer")
        done = self.rnic.submit_batch(self, wrs)  # may reject the chain
        self.posted += len(wrs)
        return done

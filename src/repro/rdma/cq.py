"""Completion queues and work completions (ibv_cq / ibv_wc)."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.core import Event, Simulator


class WcStatus(enum.Enum):
    """Work-completion status codes (subset of ibv_wc_status)."""

    SUCCESS = "success"
    REMOTE_ACCESS_ERROR = "remote_access_error"
    REMOTE_OP_ERROR = "remote_op_error"
    WR_FLUSH_ERROR = "wr_flush_error"
    #: Transport retries exhausted: the target never ACKed (crashed
    #: host or partitioned link).  Retryable at the initiator.
    RETRY_EXC_ERROR = "retry_exc_error"


@dataclass
class Completion:
    """One completion-queue entry."""

    wr_id: int
    opcode: str
    status: WcStatus
    byte_len: int = 0
    #: For READ/CAS/FETCH_ADD: the returned data / original value.
    result: Any = None
    error: str = ""
    #: Number of WRs this completion retires.  Selective signaling posts
    #: a chain of WRs with only the last one signaled, so one CQE can
    #: stand for a whole batch (``wr_id`` names the signaled WR).
    chained: int = 1


class CompletionQueue:
    """A FIFO of completions with blocking poll support."""

    def __init__(self, sim: Simulator, depth: int = 4096):
        self.sim = sim
        self.depth = depth
        self._entries: deque[Completion] = deque()
        self._waiters: deque[Event] = deque()
        self.total_completions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, completion: Completion) -> int:
        """Add a completion (called by the RNIC); returns the queue's
        depth after it."""
        if len(self._entries) >= self.depth:
            # A full CQ on real hardware is a fatal async event; here we
            # surface it loudly rather than silently dropping.
            raise OverflowError("completion queue overrun")
        self.total_completions += 1
        if self._waiters:
            self._waiters.popleft().succeed(completion)
        else:
            self._entries.append(completion)
        return len(self._entries)

    def poll(self) -> Optional[Completion]:
        """Non-blocking poll: one completion or None."""
        if self._entries:
            return self._entries.popleft()
        return None

    def wait(self) -> Event:
        """Blocking poll: event fires with the next completion."""
        if self._entries:
            event = self.sim.event()
            event.succeed(self._entries.popleft())
            return event
        waiter = self.sim.event()
        self._waiters.append(waiter)
        return waiter

"""Canonical ``hb.*`` trace events and their emit helpers.

The instrumentation layer is deliberately thin: every event is one
:class:`~repro.sim.trace.TraceEvent` in the simulator's shared
telemetry recorder (:func:`repro.obs.telemetry_of`), so the checker
rides the same plumbing the span tracer and experiments already use.

Event categories and their payloads:

``hb.post``
    A WR handed to the RNIC.  ``qp``, ``node`` (initiator), ``target``
    (remote host), ``kind`` (READ/WRITE/CAS/FADD), ``addr``/``length``
    (remote range), ``wr_id``, ``chain`` (doorbell-batch id or None),
    ``signaled``, ``fence`` (only when set) -- plus any sync-layer
    annotations (``epoch``, ``label``, ``txn``, ``pub_addr``/``pub_len``).
``hb.land``
    The WR's remote effect took place (last DMA chunk placed, atomic
    executed, read data captured).  Same keys as the post; atomics add
    ``success`` (CAS took) and ``value`` (qword now in DRAM); 8-byte
    writes and reads add ``value`` too so reads-from edges can be
    recovered.
``hb.comp``
    A *signaled* completion was delivered to the initiator.  Chains
    retire under one CQE (``chained`` counts the batch) -- unsignaled
    WRs never produce an ``hb.comp``, which is exactly why they cannot
    act as ordering points.
``hb.flush.post`` / ``hb.flush``
    ``rdx_cc_event``: the fire-and-forget doorbell going out, and the
    remote cache-line flush actually taking effect ~2us later.  The
    effect carries ``waited=True`` when the initiator blocked on it
    (``RemoteSync.flush_chained`` after a deploy's chained doorbells,
    a bubble raise or a doorbell of its own); only waited flushes act
    as QP ordering points in the graph -- the broadcast's deferred
    lowering flush carries ``waited=False`` and orders nothing.
``hb.lock``
    ``rdx_mutual_excl`` transitions: ``op`` is ``acquire``/``release``,
    ``addr`` the lock word, ``token`` the owner.
``hb.handoff``
    A tree-broadcast relay handoff: the control plane ships a chained
    WR list (or lowering command) to an already-updated sandbox for
    forwarding.  ``from_qp`` is the initiator QP whose polled
    completions the command is program-ordered behind; ``qp`` is the
    relay QP that will carry the forwarded ops.  The wire message is
    a real happens-before edge -- the relay cannot post bytes it has
    not received -- which is what orders a relayed lower after the
    control plane's raise without sharing a send queue.
``hb.exec``
    The target CPU executed a hook: ``hook_addr`` the slot qword it
    read, ``pointer`` the code address it observed through the cache,
    ``addr``/``length`` the code range it then decoded and ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.obs import telemetry_of
from repro.sim.trace import TraceEvent, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdma.qp import QueuePair, WorkRequest
    from repro.sim.core import Simulator

#: Simulators that emitted hb events and have not been checked yet.
#: Keyed by id() so identity (not equality) dedups; insertion-ordered
#: so the pytest fixture reports findings deterministically.
_active: "dict[int, Simulator]" = {}


def active_sims() -> "list[Simulator]":
    """Simulators with unchecked hb events, oldest first."""
    return list(_active.values())


def forget(sim: "Simulator") -> None:
    """Drop ``sim`` from the active registry (after checking it)."""
    _active.pop(id(sim), None)


def reset() -> None:
    """Clear the active registry (test isolation)."""
    _active.clear()


def txn_note(
    sim: "Simulator",
    publishes: Optional[tuple[int, int]] = None,
    txn: Optional[int] = None,
) -> dict:
    """An annotation dict tying deploy-body writes to their commit.

    ``publishes`` marks the commit op itself: the ``(addr, length)``
    range the flipped pointer makes reachable.  The same ``txn`` id on
    the body writes lets the commit-before-body detector enumerate
    exactly the writes the commit must be ordered after -- explicit
    tagging instead of pointer-value inference, so reused code pages
    from unrelated deploys never alias into the transaction.
    """
    note: dict = {"txn": next(sim.ids.txn) if txn is None else txn}
    if publishes is not None:
        note["pub_addr"], note["pub_len"] = publishes
    return note


def emit(sim: "Simulator", category: str, **data: Any) -> None:
    """Record one hb event and register ``sim`` for checking."""
    telemetry_of(sim).recorder.record(sim.now, category, **data)
    _active.setdefault(id(sim), sim)


def _wr_payload(
    qp: "QueuePair", wr: "WorkRequest", kind: str, addr: int, length: int
) -> dict:
    remote = qp.remote
    assert remote is not None
    payload = {
        "qp": qp.qpn,
        "node": qp.rnic.host.name,
        "target": remote.rnic.host.name,
        "kind": kind,
        "addr": addr,
        "length": length,
        "wr_id": wr.wr_id,
    }
    if wr.fence:
        payload["fence"] = True
    if wr.hb:
        payload.update(wr.hb)
    return payload


_KIND_BY_OPCODE = {
    "write": "WRITE",
    "read": "READ",
    "cas": "CAS",
    "fetch_add": "FADD",
    "send": "SEND",
}


def wr_kind(wr: "WorkRequest") -> str:
    return _KIND_BY_OPCODE[wr.opcode.value]


def wr_range(wr: "WorkRequest") -> tuple[int, int]:
    """The remote byte range a WR touches: ``(addr, length)``."""
    from repro.rdma.qp import WrOpcode

    if wr.opcode is WrOpcode.RDMA_WRITE:
        return wr.remote_addr, len(wr.data)
    if wr.opcode is WrOpcode.RDMA_READ:
        return wr.remote_addr, wr.length
    return wr.remote_addr, 8  # atomics touch one qword


def emit_post(
    sim: "Simulator",
    qp: "QueuePair",
    wr: "WorkRequest",
    chain: Optional[int],
    signaled: bool,
) -> None:
    addr, length = wr_range(wr)
    emit(
        sim,
        "hb.post",
        chain=chain,
        signaled=signaled,
        **_wr_payload(qp, wr, wr_kind(wr), addr, length),
    )


def emit_land(
    sim: "Simulator",
    qp: "QueuePair",
    wr: "WorkRequest",
    chain: Optional[int] = None,
    value: Optional[int] = None,
    success: Optional[bool] = None,
) -> None:
    addr, length = wr_range(wr)
    payload = _wr_payload(qp, wr, wr_kind(wr), addr, length)
    payload["chain"] = chain
    if value is not None:
        payload["value"] = value
    if success is not None:
        payload["success"] = success
    emit(sim, "hb.land", **payload)


def emit_comp(
    sim: "Simulator",
    qp: "QueuePair",
    wr_id: int,
    status: str,
    chain: Optional[int] = None,
    chained: int = 1,
) -> None:
    emit(
        sim,
        "hb.comp",
        qp=qp.qpn,
        node=qp.rnic.host.name,
        wr_id=wr_id,
        status=status,
        chain=chain,
        chained=chained,
    )


def emit_handoff(
    sim: "Simulator", from_qp: "QueuePair", to_qp: "QueuePair"
) -> None:
    """The control plane hands a relay its forwarding work."""
    remote = to_qp.remote
    emit(
        sim,
        "hb.handoff",
        qp=to_qp.qpn,
        from_qp=from_qp.qpn,
        node=to_qp.rnic.host.name,
        target=remote.rnic.host.name if remote is not None else None,
    )


@dataclass(frozen=True)
class HbEvent:
    """One parsed hb event, positioned in the recorder's total order.

    ``seq`` is the event's index among the extracted hb events --
    record order, which is nondecreasing simulated time with ties
    broken by emission order.  Every graph edge points from a lower
    seq to a higher one.
    """

    seq: int
    time_us: float
    etype: str  # "post" | "land" | "comp" | "flush_post" | "flush" | "lock" | "exec"
    data: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    @property
    def kind(self) -> Optional[str]:
        return self.data.get("kind")

    @property
    def qp(self) -> Optional[int]:
        return self.data.get("qp")

    @property
    def target(self) -> Optional[str]:
        return self.data.get("target")

    @property
    def addr(self) -> Optional[int]:
        return self.data.get("addr")

    @property
    def length(self) -> int:
        return int(self.data.get("length", 0))

    @property
    def range(self) -> Optional[tuple[int, int]]:
        """Half-open remote byte range, or None for range-less events."""
        addr = self.data.get("addr")
        if addr is None:
            return None
        return addr, addr + self.length

    @property
    def actor(self) -> str:
        """The sequential execution context this event belongs to."""
        if self.etype == "exec":
            return f"cpu:{self.data.get('target')}"
        return f"qp:{self.data.get('qp')}"

    def to_dict(self) -> dict:
        """A JSON-safe rendering (payloads are primitives by design:
        ids, addresses, labels -- nothing object-valued is emitted)."""
        return {
            "seq": self.seq,
            "time_us": self.time_us,
            "etype": self.etype,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HbEvent":
        return cls(
            seq=int(data["seq"]),
            time_us=float(data["time_us"]),
            etype=str(data["etype"]),
            data=dict(data.get("data", {})),
        )

    def describe(self) -> str:
        d = self.data
        bits = [f"#{self.seq}", f"t={self.time_us:.2f}us", f"hb.{self.etype}"]
        if self.etype == "exec":
            bits.append(f"cpu:{d.get('target')}")
            bits.append(f"hook@{d.get('hook_addr', 0):#x}")
        else:
            bits.append(f"qp:{d.get('qp')}")
            if d.get("kind"):
                bits.append(str(d["kind"]))
        if d.get("addr") is not None:
            bits.append(f"[{d['addr']:#x}+{self.length}]")
        for key in ("label", "epoch", "txn", "op", "wr_id", "chain"):
            if d.get(key) is not None:
                bits.append(f"{key}={d[key]}")
        return " ".join(bits)


_ETYPES = {
    "hb.post": "post",
    "hb.land": "land",
    "hb.comp": "comp",
    "hb.flush.post": "flush_post",
    "hb.flush": "flush",
    "hb.lock": "lock",
    "hb.handoff": "handoff",
    "hb.exec": "exec",
}


def extract(source: "TraceRecorder | Iterable[TraceEvent]") -> list[HbEvent]:
    """Pull the hb events out of a recorder (or raw event iterable)."""
    events = source.events if isinstance(source, TraceRecorder) else source
    out: list[HbEvent] = []
    for event in events:
        etype = _ETYPES.get(event.category)
        if etype is not None:
            out.append(HbEvent(len(out), event.time_us, etype, event.data))
    return out

"""The durable intent journal: a WAL for control-plane lifecycle ops.

RDX's agentless design concentrates *all* lifecycle authority in the
remote control plane -- targets hold bytes, not knowledge.  If the
control plane dies, the only copy of "what should be running where"
dies with it.  The journal fixes that: every mutating operation writes
an ``INTEND`` record before touching any target, ``PHASE`` records as
the pipeline advances, and a terminal ``COMMIT`` or ``ABORT``.  A
restarted control plane replays the journal to recover

* the **committed intent** per target (which program owns which hook,
  which XStates exist) -- the goal state the anti-entropy reconciler
  (:mod:`repro.core.reconcile`) converges targets back to;
* **in-flight transactions** -- intents with no terminal record, i.e.
  work the old incarnation may have half-applied before dying; the
  reconciler aborts these and repairs any partial effects;
* the **deployment epoch** lineage, so the new incarnation can claim
  a strictly higher epoch and fence out its stale predecessor.

The journal object itself stands in for replicated durable storage
(etcd / a log on NVM): it deliberately survives the control-plane
*instance*, and :meth:`to_jsonl` / :meth:`from_jsonl` round-trip the
records so real persistence is a serialization away.  Program bodies
are not in the WAL; a side-table **artifact catalog** maps each
program tag to its object, modeling the validated-binary store the
§3.2 registry already implies.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from repro.ebpf.maps import MapType
from repro.errors import ReproError
from repro.core.xstate import XStateSpec


class JournalError(ReproError):
    """Misuse of the intent journal (unknown txn, double terminal)."""


#: Record types, in pipeline order.
REC_EPOCH = "EPOCH"
REC_INTEND = "INTEND"
REC_PHASE = "PHASE"
REC_COMMIT = "COMMIT"
REC_ABORT = "ABORT"
#: Crash flight-recorder snapshot (see :mod:`repro.obs.flight`): not
#: part of any transaction, ignored by intent replay, rendered by
#: ``python -m repro.cli blackbox``.
REC_FLIGHT = "FLIGHT"

_TERMINAL = (REC_COMMIT, REC_ABORT)


@dataclass(frozen=True)
class JournalRecord:
    """One WAL entry.  ``lsn`` is the append-order sequence number."""

    lsn: int
    rec: str  # EPOCH | INTEND | PHASE | COMMIT | ABORT
    txn: str  # "" for EPOCH records
    op: str  # deploy | broadcast | xstate | detach | reconcile | ...
    epoch: int
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "lsn": self.lsn,
                "rec": self.rec,
                "txn": self.txn,
                "op": self.op,
                "epoch": self.epoch,
                "detail": self.detail,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "JournalRecord":
        raw = json.loads(line)
        return cls(
            lsn=raw["lsn"],
            rec=raw["rec"],
            txn=raw["txn"],
            op=raw["op"],
            epoch=raw["epoch"],
            detail=raw["detail"],
        )


@dataclass
class TargetIntent:
    """The committed goal state for one target."""

    #: hook name -> program tag that must own it (catalog resolves tag).
    hooks: dict = field(default_factory=dict)
    #: program name -> tag, for every intended extension.
    programs: dict = field(default_factory=dict)
    #: xstate name -> geometry dict (XStateSpec fields).
    xstates: dict = field(default_factory=dict)

    def empty(self) -> bool:
        return not (self.hooks or self.programs or self.xstates)

    def spec_of(self, name: str) -> XStateSpec:
        raw = self.xstates[name]
        return XStateSpec(
            name=raw["name"],
            map_type=MapType(raw["map_type"]),
            key_size=raw["key_size"],
            value_size=raw["value_size"],
            max_entries=raw["max_entries"],
        )


@dataclass
class InFlightTxn:
    """An intent with no terminal record: possibly half-applied work."""

    txn: str
    op: str
    epoch: int
    intend: JournalRecord
    phases: list = field(default_factory=list)


class IntentJournal:
    """Append-only WAL plus the program-artifact catalog."""

    def __init__(self):
        self.records: list[JournalRecord] = []
        #: program tag -> program object (the validated-artifact store).
        self.catalog: dict[str, object] = {}
        self._lsn = itertools.count(1)
        self._open: dict[str, JournalRecord] = {}

    def __len__(self) -> int:
        return len(self.records)

    # -- appends ---------------------------------------------------------

    def _append(
        self, rec: str, txn: str, op: str, epoch: int, detail: dict
    ) -> JournalRecord:
        record = JournalRecord(
            lsn=next(self._lsn), rec=rec, txn=txn, op=op, epoch=epoch,
            detail=detail,
        )
        self.records.append(record)
        return record

    def claim_epoch(self) -> int:
        """Claim the next deployment epoch (strictly above every prior).

        Called once per control-plane incarnation; the EPOCH record is
        the incarnation's birth certificate, so even a reader with no
        other context can order incarnations.
        """
        epoch = self.latest_epoch() + 1
        self._append(REC_EPOCH, "", "claim", epoch, {})
        return epoch

    def latest_epoch(self) -> int:
        epoch = 0
        for record in self.records:
            if record.epoch > epoch:
                epoch = record.epoch
        return epoch

    def begin(self, txn: str, op: str, epoch: int, **detail) -> str:
        """Write the INTEND record; must precede any target mutation."""
        if txn in self._open:
            raise JournalError(f"txn {txn} already open")
        record = self._append(REC_INTEND, txn, op, epoch, dict(detail))
        self._open[txn] = record
        return txn

    def phase(self, txn: str, phase: str, **detail) -> None:
        intend = self._require_open(txn)
        detail = dict(detail)
        detail["phase"] = phase
        self._append(REC_PHASE, txn, intend.op, intend.epoch, detail)

    def commit(self, txn: str, **detail) -> None:
        intend = self._open.pop(self._require_open(txn).txn)
        self._append(REC_COMMIT, txn, intend.op, intend.epoch, dict(detail))

    def abort(self, txn: str, reason: str = "", **detail) -> None:
        intend = self._open.pop(self._require_open(txn).txn)
        detail = dict(detail)
        detail["reason"] = reason
        self._append(REC_ABORT, txn, intend.op, intend.epoch, detail)

    def record_flight(self, epoch: int, detail: dict) -> JournalRecord:
        """Append a crash flight-recorder snapshot.

        The detail dict must keep its payload under nested keys (the
        flight recorder does) so ``known_targets``/``committed_intent``
        replay never mistakes it for lifecycle intent.
        """
        return self._append(REC_FLIGHT, "", "flight", epoch, dict(detail))

    def flight_records(self) -> list[JournalRecord]:
        """Every crash snapshot, oldest first."""
        return [r for r in self.records if r.rec == REC_FLIGHT]

    def _require_open(self, txn: str) -> JournalRecord:
        record = self._open.get(txn)
        if record is None:
            raise JournalError(f"txn {txn} is not open")
        return record

    # -- artifact catalog ------------------------------------------------

    def record_program(self, program) -> str:
        """File the program in the artifact catalog; returns its tag."""
        tag = program.tag()
        self.catalog[tag] = program
        return tag

    def program_for(self, tag: str):
        program = self.catalog.get(tag)
        if program is None:
            raise JournalError(f"no catalogued program with tag {tag}")
        return program

    # -- replay ----------------------------------------------------------

    def committed_intent(self) -> dict[str, TargetIntent]:
        """Fold COMMIT records, in LSN order, into per-target goal state.

        Aborted and in-flight transactions contribute nothing: the goal
        state is exactly what the control plane promised *and* confirmed.
        """
        intent: dict[str, TargetIntent] = {}

        def of(target: str) -> TargetIntent:
            return intent.setdefault(target, TargetIntent())

        for record in self.records:
            if record.rec != REC_COMMIT:
                continue
            detail = record.detail
            if record.op == "deploy":
                state = of(detail["target"])
                state.hooks[detail["hook"]] = detail["tag"]
                state.programs[detail["name"]] = detail["tag"]
            elif record.op == "broadcast":
                for leg in detail.get("legs", []):
                    state = of(leg["target"])
                    state.hooks[leg["hook"]] = leg["tag"]
                    state.programs[leg["name"]] = leg["tag"]
            elif record.op == "xstate":
                of(detail["target"]).xstates[detail["spec"]["name"]] = detail[
                    "spec"
                ]
            elif record.op == "xstate_destroy":
                of(detail["target"]).xstates.pop(detail["name"], None)
            elif record.op == "detach":
                state = of(detail["target"])
                tag = state.programs.pop(detail["name"], None)
                for hook, owner in list(state.hooks.items()):
                    if owner == tag:
                        del state.hooks[hook]
        return intent

    def in_flight(self) -> list[InFlightTxn]:
        """Intents with no terminal record, oldest first."""
        open_txns: dict[str, InFlightTxn] = {}
        for record in self.records:
            if record.rec == REC_INTEND:
                open_txns[record.txn] = InFlightTxn(
                    txn=record.txn, op=record.op, epoch=record.epoch,
                    intend=record,
                )
            elif record.rec == REC_PHASE and record.txn in open_txns:
                open_txns[record.txn].phases.append(record)
            elif record.rec in _TERMINAL:
                open_txns.pop(record.txn, None)
        return list(open_txns.values())

    def known_targets(self) -> list[str]:
        """Every target any intent has ever named, sorted."""
        targets: set[str] = set()
        for record in self.records:
            detail = record.detail
            if "target" in detail:
                targets.add(detail["target"])
            for leg in detail.get("legs", []):
                targets.add(leg["target"])
            for name in detail.get("targets", []):
                targets.add(name)
        return sorted(targets)

    # -- persistence -----------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize the WAL (records only; the catalog is the artifact
        store and persists separately)."""
        return "\n".join(record.to_json() for record in self.records)

    @classmethod
    def from_jsonl(cls, text: str) -> "IntentJournal":
        journal = cls()
        max_lsn = 0
        for line in text.splitlines():
            if not line.strip():
                continue
            record = JournalRecord.from_json(line)
            journal.records.append(record)
            max_lsn = max(max_lsn, record.lsn)
        journal._lsn = itertools.count(max_lsn + 1)
        for txn in journal.in_flight():
            journal._open[txn.txn] = txn.intend
        return journal


def xstate_spec_detail(spec: XStateSpec) -> dict:
    """Serialize an XStateSpec for a journal record."""
    return {
        "name": spec.name,
        "map_type": spec.map_type.value,
        "key_size": spec.key_size,
        "value_size": spec.value_size,
        "max_entries": spec.max_entries,
    }

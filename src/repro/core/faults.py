"""Fault injection for reliability testing (paper §7, item 4).

The paper lists "fault injection for reliability testing" among RDX's
new use cases: because the control plane owns every byte it writes, it
can deliberately produce the failure modes operators fear -- torn
images, stale caches, flipped bits, lost flushes -- and verify that
detection (CRC crash) and recovery (rollback) fire as designed.

:meth:`FaultInjector.attach` installs the injector as a filter on the
CodeFlow's :class:`~repro.core.sync.RemoteSync`, so an armed fault
fires inside *unmodified* paths (``control_plane.inject``,
``rdx_broadcast``, the plain sync ops).

Beyond payload corruption, the injector drives the *environment* fault
model: node crashes (:meth:`crash_target`), link partitions (an armed
``LINK_PARTITION``, :meth:`heal_partition`) and added delay
(:meth:`delay_target`),
implemented by :class:`~repro.net.topology.Host` /
:class:`~repro.net.fabric.Fabric` state that both the message fabric
and the RNIC honour.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError, TransientFault
from repro.obs import telemetry_of
from repro.core.codeflow import CodeFlow


class FaultKind(enum.Enum):
    """Supported fault families."""

    TORN_WRITE = "torn_write"  # only a prefix of the payload lands
    BIT_FLIP = "bit_flip"  # one byte corrupted in-flight
    DROPPED_FLUSH = "dropped_flush"  # cc_event silently does nothing
    STALE_READ = "stale_read"  # read returns pre-write bytes
    TRANSIENT = "transient"  # one op fails retryably (flaky link)
    NODE_CRASH = "node_crash"  # target host fail-stops mid-operation
    LINK_PARTITION = "link_partition"  # control <-> target link severed
    DELAY = "delay"  # target link gains extra latency


#: Kinds that corrupt a *payload* (armed via :meth:`FaultInjector.arm`
#: and applied to code-image writes).
PAYLOAD_KINDS = (FaultKind.TORN_WRITE, FaultKind.BIT_FLIP)

#: The menu a schedule-fuzz plan chooses a fault from (slot 0 = no
#: fault, keeping "choice 0 is the unperturbed schedule" true here
#: too).  Only *recoverable* kinds: the fuzz scenarios assert on race
#: findings and invariants, so a fault must perturb the schedule
#: without fail-stopping the world on its own.
FUZZ_FAULT_MENU = (
    None,
    FaultKind.TRANSIENT,
    FaultKind.TORN_WRITE,
    FaultKind.BIT_FLIP,
    FaultKind.DROPPED_FLUSH,
)


@dataclass
class FaultRecord:
    """One injected fault, for the experiment log."""

    kind: FaultKind
    target: str
    detail: str


class _HookAction:
    """What the sync layer should do with one intercepted op."""

    __slots__ = ("mangled", "drop", "error")

    def __init__(self, mangled=None, drop=False, error=None):
        self.mangled = mangled
        self.drop = drop
        self.error = error


class FaultInjector:
    """Arms one-shot (or counted) faults on a CodeFlow's remote ops."""

    def __init__(self, codeflow: CodeFlow, seed: int = 0):
        self.codeflow = codeflow
        self._rng = random.Random(seed)
        self._armed: Optional[FaultKind] = None
        self._armed_count = 0
        self.injected: list[FaultRecord] = []

    def arm(self, kind: FaultKind, count: int = 1) -> None:
        """Arm ``kind`` for the next ``count`` matching operations."""
        if self._armed is not None:
            raise ReproError(f"fault {self._armed} already armed")
        if count < 1:
            raise ReproError(f"fault count must be >= 1: {count}")
        self._armed = kind
        self._armed_count = count

    def disarm(self) -> None:
        self._armed = None
        self._armed_count = 0

    def arm_from_plan(self, plan, site: str) -> Optional[FaultKind]:
        """Let a schedule-fuzz decision tape pick the next fault.

        ``plan`` is a :class:`~repro.fuzz.plan.SchedulePlan`; the
        chosen :data:`FUZZ_FAULT_MENU` entry is armed (``None`` arms
        nothing) and returned, so scenarios can log what the tape did.
        A minimized tape that drops this decision reverts to the
        fault-free schedule -- fault type is one more shrinkable
        choice, exactly like a delay.
        """
        kind = FUZZ_FAULT_MENU[plan.choose(site, len(FUZZ_FAULT_MENU))]
        if kind is not None:
            self.arm(kind)
        return kind

    # -- injection (fires inside unmodified paths) ------------------------

    def attach(self) -> None:
        """Install this injector as the CodeFlow's sync fault filter."""
        self.codeflow.sync.fault_hook = self._hook

    def detach(self) -> None:
        if self.codeflow.sync.fault_hook is self._hook:
            self.codeflow.sync.fault_hook = None

    def _hook(self, op: str, addr: int, data) -> Optional[_HookAction]:
        kind = self._armed
        if kind is None:
            return None
        if kind in PAYLOAD_KINDS:
            # Payload faults target the bulk image transfer, not the
            # tiny control writes (bubble flags, metadata, doorbells).
            if op != "write" or data is None or not self._in_code_region(addr):
                return None
            if kind is FaultKind.TORN_WRITE:
                return _HookAction(mangled=self._tear(data))
            return _HookAction(mangled=self._flip(data))
        if kind is FaultKind.DROPPED_FLUSH:
            if op != "cc_event":
                return None
            self._record(kind, "flush dropped in-flight")
            return _HookAction(drop=True)
        if kind is FaultKind.STALE_READ:
            # Stale reads target the bulk verify readback, not the tiny
            # 8-byte control reads (epoch fences, bubble flags).
            if op != "read" or not self._in_code_region(addr):
                return None
            self._record(kind, "read served stale bytes")
            return _HookAction(drop=True)
        if kind is FaultKind.TRANSIENT:
            self._record(kind, f"{op} @{addr:#x} failed retryably")
            return _HookAction(
                error=TransientFault(f"injected transient fault on {op}")
            )
        if kind is FaultKind.NODE_CRASH:
            # Fail-stop the target as this op goes out: the op -- and
            # every retry after it -- sees an unreachable host.
            self._record(kind, f"host crashed during {op}")
            self.codeflow.sandbox.host.crash()
            return None
        if kind is FaultKind.LINK_PARTITION:
            self._record(kind, f"link severed during {op}")
            self._set_partition(True)
            return None
        return None

    def _in_code_region(self, addr: int) -> bool:
        manifest = self.codeflow.manifest
        return manifest.code_addr <= addr < manifest.code_addr + manifest.code_bytes

    def _tear(self, data: bytes) -> bytes:
        cut = max(1, len(data) // 2 + self._rng.randrange(-8, 8))
        cut = min(cut, len(data) - 1) if len(data) > 1 else 1
        self._record(FaultKind.TORN_WRITE, f"{cut}/{len(data)} bytes landed")
        return data[:cut]

    def _flip(self, data: bytes) -> bytes:
        index = self._rng.randrange(len(data))
        corrupted = bytearray(data)
        corrupted[index] ^= 1 << self._rng.randrange(8)
        self._record(FaultKind.BIT_FLIP, f"byte {index} flipped")
        return bytes(corrupted)

    # -- environment faults (crash / partition / delay) -------------------

    def crash_target(self) -> None:
        """Fail-stop the target host immediately."""
        self._record(FaultKind.NODE_CRASH, "host fail-stopped", armed=False)
        self.codeflow.sandbox.host.crash()

    def recover_target(self, reboot: bool = False) -> None:
        """Bring the target host back.

        ``reboot=True`` additionally warm-reboots the sandbox runtime:
        the process comes back with its volatile control surface wiped
        (hooks, metadata, epoch, Meta-XState index) even though DRAM
        survived -- the realistic post-crash state an anti-entropy
        reconciler must repair before the target serves traffic again.
        """
        self.codeflow.sandbox.host.recover()
        if reboot:
            self.codeflow.sandbox.warm_reboot()
            self.codeflow.reset_after_reboot()

    def heal_partition(self) -> None:
        self._set_partition(False)

    def delay_target(self, extra_us: float) -> None:
        """Add ``extra_us`` one-way latency to the target's link."""
        host = self.codeflow.sandbox.host
        if host.fabric is None:
            raise ReproError(f"{host.name} is not attached to a fabric")
        if extra_us > 0:
            self._record(
                FaultKind.DELAY, f"+{extra_us}us link delay", armed=False
            )
        host.fabric.set_extra_delay(host.name, extra_us)

    def _set_partition(self, severed: bool) -> None:
        target = self.codeflow.sandbox.host
        control = self.codeflow.control_plane.host
        fabric = target.fabric
        if fabric is None or control.fabric is not fabric:
            # No shared fabric to partition; fall back to a crash-style
            # unreachability marker on the target itself.
            if severed:
                target.crash()
            else:
                target.recover()
            return
        if severed:
            fabric.partition(control.name, target.name)
        else:
            fabric.heal(control.name, target.name)

    def _record(self, kind: FaultKind, detail: str, armed: bool = True) -> None:
        self.injected.append(
            FaultRecord(kind=kind, target=self.codeflow.sandbox.name, detail=detail)
        )
        telemetry_of(self.codeflow.sim).counter(
            "rdx.faults.injected", kind=kind.value
        ).inc()
        if armed:
            self._armed_count -= 1
            if self._armed_count <= 0:
                self._armed = None
                self._armed_count = 0


def crash_campaign(
    testbed, program, rounds: int = 8, seed: int = 3
) -> tuple[int, int]:
    """A ready-made reliability experiment.

    Repeatedly deploys ``program`` in full through the control plane
    with a randomly armed payload fault and counts (faults injected,
    crashes detected by the data path).  The fault lands in the staged
    image, and the commit still flips the hook to it: the fault model
    targets the *payload*, not the commit protocol.  A healthy system
    detects every payload corruption.
    """
    from repro.errors import SandboxCrash

    rng = random.Random(seed)
    injector = FaultInjector(testbed.codeflow, seed=seed)
    injector.attach()
    detected = 0
    try:
        for _ in range(rounds):
            injector.arm(rng.choice([FaultKind.TORN_WRITE, FaultKind.BIT_FLIP]))
            testbed.sim.run_process(
                testbed.control.inject(
                    testbed.codeflow, program, "ingress", delta=False
                )
            )
            try:
                testbed.sandbox.run_hook("ingress", bytes(256))
            except SandboxCrash:
                detected += 1
                testbed.sandbox.crashed = False
    finally:
        injector.detach()
    return len(injector.injected), detected

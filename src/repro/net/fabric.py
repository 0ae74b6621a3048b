"""In-rack message fabric with latency + bandwidth accounting.

One switch, full bisection: any host pair is one switched hop apart.
The fabric delivers :class:`Message` objects after propagation plus
serialization delay; per-link queueing is modeled by serializing each
sender's egress port.

The fabric is also the home of the *network* half of the fault model:
node crashes (a crashed host stops ACKing; in-flight messages to it
are lost), link partitions between host pairs, and per-host extra
delay.  Waiters on a dropped message get
:class:`~repro.errors.HostUnreachable` thrown into them rather than
hanging forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro import params
from repro.errors import HostUnreachable, ReproError
from repro.fuzz import hooks as fuzz_hooks
from repro.net.topology import Host
from repro.obs import telemetry_of
from repro.sim.core import Event, Simulator
from repro.sim.resources import Resource


@dataclass
class Message:
    """One fabric datagram.

    ``msg_id`` is assigned by the owning :class:`Fabric` at send time
    (per-fabric counter), so two simulators in one process produce
    identical, independent ID sequences -- trace output stays
    deterministic regardless of test ordering.
    """

    src: str
    dst: str
    channel: str
    size_bytes: int
    payload: Any = None
    msg_id: int = 0


class Fabric:
    """Single-rack switching fabric shared by every attached host."""

    def __init__(
        self,
        sim: Simulator,
        base_latency_us: float = params.NET_BASE_LATENCY_US,
        bandwidth_bpus: float = params.RDMA_BANDWIDTH_BPUS,
    ):
        self.sim = sim
        self.base_latency_us = base_latency_us
        self.bandwidth_bpus = bandwidth_bpus
        self._hosts: dict[str, Host] = {}
        self._egress: dict[str, Resource] = {}
        self._message_ids = itertools.count(1)
        #: Severed host pairs (unordered) -- see :meth:`partition`.
        self._partitions: set[frozenset[str]] = set()
        #: Extra one-way delay per host (slow/degraded link model).
        self._extra_delay_us: dict[str, float] = {}
        self.messages_sent = 0
        self.messages_dropped = 0
        self.bytes_sent = 0
        #: The schedule-fuzz decision tape, if this run has one.
        self._plan = fuzz_hooks.plan_of(sim)

    def attach(self, host: Host) -> None:
        """Connect a host to the rack switch."""
        if host.name in self._hosts:
            raise ReproError(f"host {host.name!r} already attached")
        self._hosts[host.name] = host
        self._egress[host.name] = Resource(self.sim, capacity=1)
        host.attach_fabric(self)

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise ReproError(f"unknown host {name!r}") from None

    # -- fault model -----------------------------------------------------

    def crash_host(self, name: str) -> None:
        """Fail-stop ``name``: no ACKs, in-flight messages to it lost."""
        self.host(name).crash()

    def recover_host(self, name: str) -> None:
        self.host(name).recover()

    def partition(self, a: str, b: str) -> None:
        """Sever the link between hosts ``a`` and ``b`` (both ways)."""
        self.host(a), self.host(b)  # validate names
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Restore a previously severed link (no-op if not severed)."""
        self._partitions.discard(frozenset((a, b)))

    def set_extra_delay(self, name: str, extra_us: float) -> None:
        """Add ``extra_us`` one-way delay to every message touching
        ``name`` (0 clears it)."""
        if extra_us < 0:
            raise ReproError(f"negative extra delay: {extra_us}")
        self.host(name)  # validate
        if extra_us == 0:
            self._extra_delay_us.pop(name, None)
        else:
            self._extra_delay_us[name] = extra_us

    def reachable(self, src: str, dst: str) -> bool:
        """Can a message currently get from ``src`` to ``dst``?"""
        if self.host(src).crashed or self.host(dst).crashed:
            return False
        return frozenset((src, dst)) not in self._partitions

    def extra_delay_us(self, src: str, dst: str) -> float:
        return self._extra_delay_us.get(src, 0.0) + self._extra_delay_us.get(
            dst, 0.0
        )

    # -- transmission ----------------------------------------------------

    def send(self, message: Message) -> Event:
        """Transmit ``message``; the returned event fires at delivery.

        The event's value is the message.  Delivery also invokes the
        destination's registered channel handler, if any.  If the
        destination crashes or the link partitions while the message
        is in flight, the event *fails* with
        :class:`~repro.errors.HostUnreachable` so waiters unblock.
        """
        if message.dst not in self._hosts:
            raise ReproError(f"unknown destination {message.dst!r}")
        if message.src not in self._hosts:
            raise ReproError(f"unknown source {message.src!r}")
        if message.size_bytes < 0:
            raise ReproError("negative message size")
        if not message.msg_id:
            message.msg_id = next(self._message_ids)
        done = self.sim.event()
        self.sim.spawn(self._transmit(message, done), name=f"xmit#{message.msg_id}")
        return done

    def _transmit(self, message: Message, done: Event):
        egress = self._egress[message.src]
        grant = egress.request()
        yield grant
        try:
            serialize_us = message.size_bytes / self.bandwidth_bpus
            yield self.sim.timeout(serialize_us)
        finally:
            egress.release(grant)
        propagation_us = self.base_latency_us + self.extra_delay_us(
            message.src, message.dst
        )
        if self._plan is not None:
            # Schedule-fuzz choice point: stretch propagation after the
            # egress port is released, so a later message from the same
            # sender can arrive first -- in-fabric reorder, which RoCE
            # permits across flows and the control plane must tolerate.
            propagation_us += self._plan.delay_us(
                f"fabric.delay:{message.src}",
                params.RDX_FUZZ_NET_DELAY_US,
            )
        yield self.sim.timeout(propagation_us)
        # Reachability is evaluated at delivery time: a destination that
        # crashed (or a link that partitioned) while the bytes were in
        # flight eats the message.
        if not self.reachable(message.src, message.dst):
            self.messages_dropped += 1
            telemetry_of(self.sim).counter(
                "net.fabric.dropped", dst=message.dst
            ).inc()
            done.fail(
                HostUnreachable(
                    f"message #{message.msg_id} {message.src}->{message.dst} "
                    f"lost (destination crashed or link partitioned)"
                )
            )
            return
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        handler = self._hosts[message.dst].handler_for(message.channel)
        if handler is not None:
            result = handler(message)
            # Handlers may return a generator to run as a process.
            if hasattr(result, "send") and hasattr(result, "throw"):
                self.sim.spawn(result, name=f"handler:{message.channel}")
        done.succeed(message)

    def one_way_delay_us(self, size_bytes: int) -> float:
        """Closed-form minimum delivery time for a message (no queueing)."""
        return self.base_latency_us + size_bytes / self.bandwidth_bpus

"""TCP/gRPC-style request/response RPC over the fabric.

This is the *agent baseline's* control transport: unlike RDMA verbs it
traverses the kernel network stack, so every call charges fixed stack
latency plus host-CPU time at the receiver (paper §2.2, Obs 3 -- this
is one of the contention channels between control and data paths).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro import params
from repro.errors import ReproError
from repro.net.fabric import Fabric, Message
from repro.net.topology import Host
from repro.sim.core import Event


class RpcError(ReproError):
    """The remote handler raised, or the method is unknown."""


@dataclass
class RpcRequest:
    """One in-flight RPC call."""

    method: str
    args: Any
    size_bytes: int
    reply_to: str
    rpc_id: int


@dataclass
class RpcResponse:
    """The reply to an :class:`RpcRequest`."""

    rpc_id: int
    value: Any = None
    error: Optional[str] = None
    size_bytes: int = 128


class RpcEndpoint:
    """Per-host RPC server + client stub.

    Handlers are generator functions ``handler(args) -> value`` run as
    simulation processes on the host, so they can consume CPU time via
    ``yield host.cpu.run(...)``.
    """

    def __init__(self, host: Host, service: str):
        if host.fabric is None:
            raise ReproError(f"host {host.name} is not attached to a fabric")
        self.host = host
        self.service = service
        self.channel = f"rpc:{service}"
        self._methods: dict[str, Callable[[Any], Generator]] = {}
        self._pending: dict[int, Event] = {}
        host.register_handler(self.channel, self._on_message)
        self.calls_served = 0

    def register(self, method: str, handler: Callable[[Any], Generator]) -> None:
        """Expose ``handler`` (a generator function) as ``method``."""
        self._methods[method] = handler

    # -- client side ---------------------------------------------------

    def call(
        self,
        dst: Host,
        service: str,
        method: str,
        args: Any = None,
        size_bytes: int = 256,
    ) -> Event:
        """Invoke ``service.method`` on ``dst``; event fires with the value.

        Raises :class:`RpcError` (into the awaiting process) if the
        remote handler failed.
        """
        fabric = self.host.fabric
        assert fabric is not None
        done = self.host.sim.event()
        request = RpcRequest(
            method=method,
            args=args,
            size_bytes=size_bytes,
            reply_to=self.channel,
            rpc_id=next(self.host.sim.ids.rpc),
        )
        self._pending[request.rpc_id] = done
        message = Message(
            src=self.host.name,
            dst=dst.name,
            channel=f"rpc:{service}",
            size_bytes=size_bytes,
            payload=request,
        )
        self.host.sim.spawn(
            self._send_after_stack_delay(fabric, message),
            name=f"rpc-call:{method}",
        )
        return done

    def _send_after_stack_delay(self, fabric: Fabric, message: Message):
        # Sender-side kernel stack + serialization cost.
        yield self.host.sim.timeout(params.RPC_BASE_LATENCY_US / 2)
        yield fabric.send(message)

    # -- server side ---------------------------------------------------

    def _on_message(self, message: Message):
        payload = message.payload
        if isinstance(payload, RpcResponse):
            return self._complete(payload)
        if isinstance(payload, RpcRequest):
            return self._serve(message.src, payload)
        raise RpcError(f"unexpected payload on {self.channel}: {payload!r}")

    def _complete(self, response: RpcResponse):
        waiter = self._pending.pop(response.rpc_id, None)
        if waiter is None:
            return None
        if response.error is not None:
            waiter.fail(RpcError(response.error))
        else:
            waiter.succeed(response.value)
        return None

    def _serve(self, src_name: str, request: RpcRequest) -> Generator:
        # Receiver-side kernel stack cost before the handler runs.
        yield self.host.sim.timeout(params.RPC_BASE_LATENCY_US / 2)
        handler = self._methods.get(request.method)
        response = RpcResponse(rpc_id=request.rpc_id)
        if handler is None:
            response.error = f"{self.service}: no method {request.method!r}"
        else:
            try:
                result = handler(request.args)
                if hasattr(result, "send") and hasattr(result, "throw"):
                    proc = self.host.sim.spawn(
                        result, name=f"rpc-serve:{request.method}"
                    )
                    yield proc
                    response.value = proc.value
                else:
                    response.value = result
            except ReproError as err:
                response.error = str(err)
        self.calls_served += 1
        fabric = self.host.fabric
        assert fabric is not None
        yield fabric.send(
            Message(
                src=self.host.name,
                dst=src_name,
                channel=request.reply_to,
                size_bytes=response.size_bytes,
                payload=response,
            )
        )

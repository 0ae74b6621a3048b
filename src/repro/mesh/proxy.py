"""The sidecar proxy: an Envoy-like filter chain over a Wasm sandbox.

Each service pod runs one sidecar; requests traverse its ordered
filter slots (hooks ``filter0..filterN-1``).  Filters come and go at
runtime via either the per-pod agent or an RDX CodeFlow -- the proxy
itself only *executes*, reading hook pointers through the host cache
like any data plane.
"""

from __future__ import annotations

from typing import Optional

from repro import params
from repro.net.topology import Host
from repro.sandbox.sandbox import Sandbox
from repro.wasm.runtime import CONTINUE, DENY, RequestContext


class SidecarProxy:
    """One sidecar: a Wasm sandbox with an ordered filter chain."""

    def __init__(
        self,
        host: Host,
        name: str = "",
        n_filter_slots: int = 4,
        code_bytes: int = 2 * 2**20,
        scratchpad_bytes: int = 1 * 2**20,
    ):
        # Request chain (filterN), response chain (respN), plus one
        # spare non-chain hook ("mgmt") for extensions that are not on
        # the request path (e.g. telemetry probes being rolled out
        # while traffic flows).
        hooks = (
            tuple(f"filter{i}" for i in range(n_filter_slots))
            + tuple(f"resp{i}" for i in range(n_filter_slots))
            + ("mgmt",)
        )
        self.host = host
        self.n_filter_slots = n_filter_slots
        self.sandbox = Sandbox(
            host,
            name=name or f"{host.name}.sidecar",
            hooks=hooks,
            code_bytes=code_bytes,
            scratchpad_bytes=scratchpad_bytes,
        )
        self.requests_processed = 0
        self.requests_denied = 0

    @property
    def name(self) -> str:
        return self.sandbox.name

    def filter_hooks(self) -> list[str]:
        return [f"filter{i}" for i in range(self.n_filter_slots)]

    def process_request(
        self, ctx: RequestContext
    ) -> tuple[int, float]:
        """Run the request through the chain.

        Returns (verdict, cpu_cost_us).  Empty slots are skipped at a
        pointer-check cost; a DENY verdict short-circuits.  A crash
        (torn or mis-linked image) propagates as
        :class:`~repro.errors.SandboxCrash`.
        """
        cost = 0.0
        verdict = CONTINUE
        for hook in self.filter_hooks():
            result, exec_cost = self.sandbox.run_wasm_hook(hook, ctx)
            cost += exec_cost
            if result is None:
                continue
            cost += params.MESH_FILTER_OVERHEAD_US
            if result.value == DENY:
                verdict = DENY
                self.requests_denied += 1
                break
        self.requests_processed += 1
        return verdict, cost

    def process_response(self, ctx: RequestContext) -> tuple[int, float]:
        """Run the response through the resp chain (reverse order).

        Proxy-wasm response filters run innermost-first; a DENY verdict
        replaces the upstream response (e.g. header policy violation).
        """
        cost = 0.0
        verdict = CONTINUE
        for index in reversed(range(self.n_filter_slots)):
            result, exec_cost = self.sandbox.run_wasm_hook(f"resp{index}", ctx)
            cost += exec_cost
            if result is None:
                continue
            cost += params.MESH_FILTER_OVERHEAD_US
            if result.value == DENY:
                verdict = DENY
                break
        return verdict, cost

    def versions_seen(self, ctx: RequestContext) -> Optional[int]:
        """The logic-version stamp the chain left on this request."""
        from repro.wasm.filters import VERSION_HEADER_KEY

        return ctx.headers.get(VERSION_HEADER_KEY)

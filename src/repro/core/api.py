"""The CodeFlow API operations of Table 1, under their paper names.

Each function is a simulation-process generator: drive it with
``sim.run_process(...)`` or ``yield from`` inside another process.

========================================  =======================================
Paper operation                           Implemented by
========================================  =======================================
``rdx_create_codeflow(node, ext_spec)``   :func:`rdx_create_codeflow`
``rdx_validate_code(handle, prog)``       :func:`rdx_validate_code`
``rdx_JIT_compile_code(handle, prog)``    :func:`rdx_jit_compile_code`
``rdx_link_code(handle, prog)``           :func:`rdx_link_code`
``rdx_deploy_prog(handle, prog)``         :func:`rdx_deploy_prog`
``rdx_deploy_xstate(handle, XState)``     :func:`rdx_deploy_xstate`
``rdx_tx(handle, obj, qword_swap)``       :func:`rdx_tx`
``rdx_cc_event(handle, hook, addr)``      :func:`rdx_cc_event`
``rdx_mutual_excl(handle, hook_ctx)``     :func:`rdx_mutual_excl`
``rdx_broadcast(group, progs, n)``        :func:`rdx_broadcast`
========================================  =======================================
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.ebpf.maps import BpfMap
from repro.ebpf.program import BpfProgram
from repro.net.topology import Host
from repro.rdma.verbs import open_device
from repro.sandbox.sandbox import Sandbox
from repro.core.broadcast import CodeFlowGroup
from repro.core.codeflow import CodeFlow
from repro.core.control_plane import RdxControlPlane
from repro.core.security import Principal
from repro.core.xstate import XStateSpec


def bootstrap_sandbox(sandbox: Sandbox) -> None:
    """Boot-time, host-local setup: install the management-stub module.

    Opens the host RNIC, allocates the boot PD, and runs
    ``ctx_register`` so the sandbox's control surface is RDMA-visible.
    This is the *only* host-side software step in RDX's lifetime
    (paper §3.1: "installed on each sandbox as a one-time setup").
    """
    ctx = open_device(sandbox.host)
    pd = ctx.alloc_pd()
    sandbox.ctx_register(pd)


def rdx_create_codeflow(
    control_plane: RdxControlPlane,
    sandbox: Sandbox,
    principal: Optional[Principal] = None,
) -> Generator:
    """Create a CodeFlow handle bound to a remote node (Table 1)."""
    codeflow = yield from control_plane.create_codeflow(sandbox, principal)
    return codeflow


def rdx_validate_code(
    handle: CodeFlow,
    program: BpfProgram,
    maps: Sequence[BpfMap] = (),
    principal: Optional[Principal] = None,
) -> Generator:
    """Remotely validate ``program`` using the CodeFlow (Table 1)."""
    stats = yield from handle.control_plane.validate_code(
        program, maps, principal=principal
    )
    return stats


def rdx_jit_compile_code(
    handle: CodeFlow,
    program: BpfProgram,
    principal: Optional[Principal] = None,
) -> Generator:
    """Remotely JIT-compile ``program`` for the handle's target arch."""
    binary = yield from handle.control_plane.jit_compile_code(
        program, arch=handle.manifest.arch, principal=principal
    )
    return binary


def rdx_link_code(handle: CodeFlow, program: BpfProgram) -> Generator:
    """Link the program's cached binary to the remote context (Table 1).

    The image is the artifact store's, as prepared for this target
    (:meth:`RdxControlPlane.prepare_for`), else compiled afresh
    (``rdx_JIT_compile_code``); returns the linked image.
    """
    binary = handle.control_plane.artifacts.compiled_image(handle, program)
    if binary is None:
        binary = yield from rdx_jit_compile_code(handle, program)
    linked = yield from handle.link_code(binary)
    return linked


def rdx_deploy_prog(
    handle: CodeFlow,
    program: BpfProgram,
    hook_name: str,
    maps: Sequence[BpfMap] = (),
    principal: Optional[Principal] = None,
) -> Generator:
    """Deploy ``program`` onto the node bound to ``handle`` (Table 1).

    Full pipeline: validate+compile (cached) -> link -> one-sided
    injection.  Returns the :class:`~repro.core.codeflow.DeployReport`.
    """
    report = yield from handle.control_plane.inject(
        handle, program, hook_name, maps=maps, principal=principal
    )
    return report


def rdx_deploy_xstate(
    handle: CodeFlow, spec: XStateSpec, initial: Optional[BpfMap] = None
) -> Generator:
    """Deploy the XState data structure onto the remote node (Table 1)."""
    xstate = yield from handle.deploy_xstate(spec, initial=initial)
    return xstate


def rdx_tx(
    handle: CodeFlow,
    inter_obj: bytes,
    obj_addr: int,
    qword_addr: int,
    new_qword: int,
    expect: Optional[int] = None,
) -> Generator:
    """Transactionally update a remote qword-guarded object (Table 1)."""
    prior = yield from handle.sync.tx(
        obj_addr, inter_obj, qword_addr, new_qword, expect=expect
    )
    return prior


def rdx_cc_event(handle: CodeFlow, mem_addr: int, length: int = 64) -> Generator:
    """Flush remote cache lines via the event hook (Table 1)."""
    yield from handle.sync.cc_event(mem_addr, length)


def rdx_mutual_excl(handle: CodeFlow, owner_token: int) -> "_LockContext":
    """Sandbox-level mutual exclusion between CPU and RNIC (Table 1).

    Returns a context whose ``acquire()``/``release()`` are processes::

        lock = rdx_mutual_excl(handle, token)
        yield from lock.acquire()
        ...critical section...
        yield from lock.release()
    """
    return _LockContext(handle, owner_token)


class _LockContext:
    """Acquire/release pair over the sandbox lock word."""

    def __init__(self, handle: CodeFlow, owner_token: int):
        self.handle = handle
        self.owner_token = owner_token

    def acquire(self, max_attempts: int = 64) -> Generator:
        attempts = yield from self.handle.sync.lock(
            self.owner_token, max_attempts=max_attempts
        )
        return attempts

    def release(self) -> Generator:
        yield from self.handle.sync.unlock(self.owner_token)


def rdx_broadcast(
    codeflow_group: Sequence[CodeFlow],
    ext_progs: Sequence[BpfProgram],
    hook_name: str,
    dependency_order: Optional[Sequence[int]] = None,
    use_bbu: bool = True,
    verify: bool = True,
    allow_partial: bool = False,
    deadline_us: Optional[float] = None,
) -> Generator:
    """Transactionally broadcast n programs to n nodes (Table 1).

    All-or-nothing by default: a failed target triggers rollback of the
    succeeded ones and raises
    :class:`~repro.errors.BroadcastAborted`; ``allow_partial=True``
    keeps survivors live and marks the result ``degraded`` instead.
    """
    group = CodeFlowGroup(codeflow_group)
    result = yield from group.broadcast(
        ext_progs,
        hook_name,
        dependency_order=dependency_order,
        use_bbu=use_bbu,
        verify=verify,
        allow_partial=allow_partial,
        deadline_us=deadline_us,
    )
    return result

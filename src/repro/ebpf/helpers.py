"""The helper-function registry (bpf_helper_defs analogue).

Helpers are the program's window into the local runtime: their
*addresses* differ per host, which is why JIT output carries a
relocation per call site and why RDX must link binaries against the
target's GOT (§3.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional


class ArgType(enum.Enum):
    """Verifier-visible helper argument types (subset of the kernel's)."""

    SCALAR = "scalar"
    CONST_MAP_PTR = "const_map_ptr"
    MAP_KEY_PTR = "map_key_ptr"  # stack pointer sized to the map key
    MAP_VALUE_PTR = "map_value_ptr"
    STACK_PTR = "stack_ptr"
    ANYTHING = "anything"


class RetType(enum.Enum):
    """Helper return types."""

    SCALAR = "scalar"
    MAP_VALUE_OR_NULL = "map_value_or_null"
    VOID = "void"


@dataclass(frozen=True)
class Helper:
    """One helper: id, name, signature, and a host-side implementation.

    ``impl`` receives (runtime_ctx, *arg_values) where runtime_ctx is
    whatever execution environment the interpreter was constructed
    with (it exposes maps, time, and a PRNG).
    """

    helper_id: int
    name: str
    args: tuple[ArgType, ...]
    ret: RetType
    impl: Callable


def _map_lookup(rt, map_ref, key_addr):
    return rt.map_lookup(map_ref, key_addr)


def _map_update(rt, map_ref, key_addr, value_addr, flags):
    return rt.map_update(map_ref, key_addr, value_addr, flags)


def _map_delete(rt, map_ref, key_addr):
    return rt.map_delete(map_ref, key_addr)


def _ktime_get_ns(rt):
    return rt.ktime_ns()


def _get_prandom_u32(rt):
    return rt.prandom_u32()


def _get_smp_processor_id(rt):
    return rt.cpu_id()


def _trace_printk(rt, fmt_addr, fmt_size):
    return rt.trace_printk(fmt_addr, fmt_size)


#: Helper ids follow the kernel's numbering where one exists.
HELPERS: dict[int, Helper] = {
    1: Helper(
        1,
        "bpf_map_lookup_elem",
        (ArgType.CONST_MAP_PTR, ArgType.MAP_KEY_PTR),
        RetType.MAP_VALUE_OR_NULL,
        _map_lookup,
    ),
    2: Helper(
        2,
        "bpf_map_update_elem",
        (
            ArgType.CONST_MAP_PTR,
            ArgType.MAP_KEY_PTR,
            ArgType.MAP_VALUE_PTR,
            ArgType.SCALAR,
        ),
        RetType.SCALAR,
        _map_update,
    ),
    3: Helper(
        3,
        "bpf_map_delete_elem",
        (ArgType.CONST_MAP_PTR, ArgType.MAP_KEY_PTR),
        RetType.SCALAR,
        _map_delete,
    ),
    5: Helper(5, "bpf_ktime_get_ns", (), RetType.SCALAR, _ktime_get_ns),
    6: Helper(
        6,
        "bpf_trace_printk",
        (ArgType.STACK_PTR, ArgType.SCALAR),
        RetType.SCALAR,
        _trace_printk,
    ),
    7: Helper(7, "bpf_get_prandom_u32", (), RetType.SCALAR, _get_prandom_u32),
    8: Helper(
        8, "bpf_get_smp_processor_id", (), RetType.SCALAR, _get_smp_processor_id
    ),
}


def helper_by_id(helper_id: int) -> Optional[Helper]:
    return HELPERS.get(helper_id)

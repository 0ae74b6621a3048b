"""cProfile roll-up by ``repro`` package: ``cpu_share.*`` and ``pycalls.*``.

cProfile taxes every Python call but not time inside native code, so
the shares below find candidates; speeds are only ever quoted from the
untraced run.  ``pycalls`` (calls of Python functions defined in a
package) is a count of deterministic work and repeats to the digit.

Time spent in builtins and the standard library (``heappush``,
``sorted``, ``zlib.crc32``, dataclass ``__init__`` ...) belongs to
whoever asked for it: it is charged to the nearest caller that lives in
``repro`` or in the benchmark, so ``other`` stays small.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Callable, Optional

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
#: Owner of the benchmark's own files (node generators, oracles, spans).
BENCH = "bench"
OTHER = "other"
_CLIMB_LIMIT = 12


def owner_of(filename: str) -> Optional[str]:
    """Package that owns ``filename``: a ``repro`` subpackage, the
    benchmark, or None for builtins and the standard library."""
    norm = filename.replace("\\", "/")
    index = norm.rfind("/src/repro/")
    if index >= 0:
        rest = norm[index + len("/src/repro/"):]
        head = rest.split("/", 1)[0]
        return head[:-3] if head.endswith(".py") else head
    if norm.startswith(LEDGER_DIR.replace("\\", "/")):
        return BENCH
    return None


class Rollup:
    """Per-owner CPU share and call count of one profiled call."""

    def __init__(self, total_s: float, seconds: dict, calls: dict, cumulative: dict):
        self.total_s = total_s
        self.seconds = seconds
        self.calls = calls
        #: (file suffix, function name) -> cumulative seconds, for the
        #: few named functions the ledger reports on their own.
        self._cumulative = cumulative

    def share(self, owner: str) -> float:
        return self.seconds.get(owner, 0.0) / self.total_s if self.total_s else 0.0

    def pycalls(self, owner: str) -> int:
        return self.calls.get(owner, 0)

    def cumulative_s(self, file_suffix: str, function: str) -> float:
        """Cumulative profiled seconds of one of the NAMED functions."""
        return self._cumulative.get((file_suffix, function), 0.0)


#: Functions whose cumulative time the ledger reports by name.
NAMED = (
    ("ebpf/verifier.py", "run"),
    ("ebpf/jit.py", "jit_compile"),
    ("ebpf/program.py", "tag"),
)


def roll_up(stats: dict, owner: Callable[[str], Optional[str]] = owner_of) -> Rollup:
    """Fold ``pstats.Stats(...).stats`` into per-owner seconds and calls."""
    owners = {func: owner(func[0]) for func in stats}
    seconds: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    cumulative: dict = {}

    def charge_up(func, amount: float, depth: int) -> None:
        """Charge ``amount`` of unowned time to ``func``'s owned callers,
        split by the cumulative time each caller edge accounts for."""
        callers = stats[func][4] if func in stats else {}
        if not callers or depth > _CLIMB_LIMIT:
            seconds[OTHER] += amount
            return
        weights = {c: edge[3] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
        scale = sum(weights.values())
        if scale <= 0:
            seconds[OTHER] += amount
            return
        for caller, weight in weights.items():
            part = amount * weight / scale
            if owners.get(caller):
                seconds[owners[caller]] += part
            else:
                charge_up(caller, part, depth + 1)

    total = 0.0
    for func, (_cc, ncalls, tottime, cumtime, callers) in stats.items():
        total += tottime
        who = owners[func]
        norm = func[0].replace("\\", "/")
        for suffix, name in NAMED:
            if func[2] == name and norm.endswith(suffix):
                cumulative[(suffix, name)] = cumtime
        if who:
            seconds[who] += tottime
            calls[who] += ncalls
            continue
        # Unowned self time: per caller edge, straight to the caller if
        # it is owned, otherwise further up.
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0:
            if tottime:
                charge_up(func, tottime, 0)
            continue
        for caller, edge in callers.items():
            part = tottime * edge[2] / edge_total
            if owners.get(caller):
                seconds[owners[caller]] += part
            else:
                charge_up(caller, part, 1)
    return Rollup(total, dict(seconds), dict(calls), cumulative)

"""A per-query UDF engine (BigQuery/PolarDB-style data processing).

Each query ships a UDF that must be injected before the scan runs and
detached after.  With agent-style local injection the validate+compile
cost lands on the engine host per query; with RDX the control plane
injects a cached binary in microseconds (§2.2 Obs 1's per-query
motivation, quantified by ``benchmarks/bench_udf_pipeline.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

from repro import params
from repro.errors import WorkloadError
from repro.net.topology import Host
from repro.udf.compiler import compile_udf
from repro.udf.expr import UdfExpr, node_count, udf_eval
from repro.udf.validator import udf_validate
from repro.wasm.runtime import WasmRuntime

#: Process-wide: a caller builds a Query with no simulation in reach.
_query_ids = itertools.count(1)

#: Engine-side scan cost per row, microseconds.
ROW_SCAN_US = 0.05


@dataclass
class Query:
    """One scan query with an attached per-query UDF."""

    udf: UdfExpr
    table: str
    query_id: int = field(default_factory=lambda: next(_query_ids))


@dataclass
class QueryResult:
    """Query outcome + where the time went."""

    query_id: int
    values: list[int]
    inject_us: float
    scan_us: float

    @property
    def total_us(self) -> float:
        return self.inject_us + self.scan_us


class QueryEngine:
    """Executes queries on one host; injection mode is pluggable."""

    def __init__(self, host: Host, row_width: int = 8):
        self.host = host
        self.sim = host.sim
        self.row_width = row_width
        self.tables: dict[str, list[tuple[int, ...]]] = {}
        #: Compile cache used by the RDX path (validate once, §3.2).
        self._compiled: dict[str, object] = {}
        self.queries_run = 0

    def load_table(self, name: str, rows: Sequence[Sequence[int]]) -> None:
        """Register a table of fixed-width integer rows."""
        converted = []
        for row in rows:
            if len(row) != self.row_width:
                raise WorkloadError(
                    f"row width {len(row)} != engine width {self.row_width}"
                )
            converted.append(tuple(int(v) for v in row))
        self.tables[name] = converted

    # -- agent-style path: validate+compile locally, per query -----------------

    def run_query_local(self, query: Query) -> Generator:
        """Local injection: the engine host pays validate+compile."""
        rows = self._rows(query)
        mark = self.sim.now
        stats = udf_validate(query.udf, row_width=self.row_width)
        module = compile_udf(query.udf, row_width=self.row_width)
        inject_cost = (
            params.AGENT_FIXED_OVERHEAD_US
            + params.UDF_PER_NODE_US * stats.nodes
        )
        yield from self.host.cpu.run(inject_cost)
        inject_us = self.sim.now - mark
        result = yield from self._scan(query, module, rows)
        return QueryResult(
            query_id=query.query_id,
            values=result,
            inject_us=inject_us,
            scan_us=self.sim.now - mark - inject_us,
        )

    # -- RDX-style path: cached binary, microsecond injection -------------------

    def run_query_rdx(self, query: Query, udf_key: str) -> Generator:
        """RDX injection: compile once (keyed), then deploy in ~us.

        The remote validate/compile happens on first use of
        ``udf_key`` and is charged to *this* generator's caller (the
        control plane in a full deployment); repeats pay only the
        one-sided write time.
        """
        rows = self._rows(query)
        mark = self.sim.now
        module = self._compiled.get(udf_key)
        if module is None:
            udf_validate(query.udf, row_width=self.row_width)
            module = compile_udf(query.udf, row_width=self.row_width)
            self._compiled[udf_key] = module
        image_bytes = module.size_bytes() + module.size_bytes() // 4 + 12
        inject_cost = (
            params.RDX_DISPATCH_US
            + params.rdma_transfer_us(image_bytes)
            + params.RDX_TX_COMMIT_US
            + params.RDX_CC_EVENT_US
        )
        yield self.sim.timeout(inject_cost)
        inject_us = self.sim.now - mark
        result = yield from self._scan(query, module, rows)
        return QueryResult(
            query_id=query.query_id,
            values=result,
            inject_us=inject_us,
            scan_us=self.sim.now - mark - inject_us,
        )

    # -- shared -----------------------------------------------------------------

    def _rows(self, query: Query) -> list[tuple[int, ...]]:
        rows = self.tables.get(query.table)
        if rows is None:
            raise WorkloadError(f"unknown table {query.table!r}")
        return rows

    def _scan(self, query: Query, module, rows) -> Generator:
        runtime = WasmRuntime()
        values = []
        for row in rows:
            outcome = runtime.run(
                module.insns, ctx=None, args=tuple(row),
                n_locals=self.row_width + 2,
            )
            values.append(outcome.value)
        yield from self.host.cpu.run(ROW_SCAN_US * len(rows))
        self.queries_run += 1
        return values

    @staticmethod
    def reference(query: Query, rows: Sequence[Sequence[int]]) -> list[int]:
        """Pure-Python reference results for correctness checks."""
        return [udf_eval(query.udf, row) for row in rows]

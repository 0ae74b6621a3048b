"""Compile UDF expression trees to the stack ISA.

The output module has **no external references** -- a UDF is fully
inline, which is the easy case of paper §3.3 ("if one extension is
fully inline ... RDX just needs to remotely write the binary").  Tests
use this contrast: UDF deploys skip linking, eBPF/Wasm deploys cannot.
"""

from __future__ import annotations

import itertools

from repro.errors import ReproError
from repro.udf.expr import Arg, BinOp, Call, Const, UdfExpr, node_count
from repro.udf.validator import udf_validate
from repro.wasm.module import WasmBuilder, WasmModule, WOp

_BINOP_TO_WOP = {
    "+": WOp.ADD,
    "-": WOp.SUB,
    "*": WOp.MUL,
    "/": WOp.DIV_U,
    "%": WOp.REM_U,
    "&": WOp.AND,
    "|": WOp.OR,
    "^": WOp.XOR,
    "<<": WOp.SHL,
    ">>": WOp.SHR_U,
}

#: Process-wide: labels only need to be unique within one module build.
_label_ids = itertools.count(1)


def compile_udf(
    expr: UdfExpr, row_width: int = 8, name: str = "udf"
) -> WasmModule:
    """Validate + compile ``expr`` into a stack-ISA module.

    Row columns arrive as locals [0, row_width); two scratch locals are
    appended for min/max lowering.
    """
    udf_validate(expr, row_width=row_width)
    builder = WasmBuilder(name=name, n_locals=row_width + 2)
    scratch_a = row_width
    scratch_b = row_width + 1
    _emit(builder, _rewrite(expr), scratch_a, scratch_b)
    builder.ret()
    module = builder.build()
    module_nodes = node_count(expr)
    if len(module.insns) < module_nodes:
        raise ReproError("compiler bug: fewer insns than AST nodes")
    return module


def _rewrite(expr: UdfExpr) -> UdfExpr:
    """Lower compound builtins to min/max primitives."""
    if isinstance(expr, BinOp):
        return BinOp(expr.op, _rewrite(expr.left), _rewrite(expr.right))
    if isinstance(expr, Call):
        args = tuple(_rewrite(arg) for arg in expr.args)
        if expr.func == "abs":
            return args[0]  # unsigned identity
        if expr.func == "clamp":
            value, low, high = args
            return Call("min", Call("max", value, low), high)
        return Call(expr.func, *args)
    return expr


def _emit(builder: WasmBuilder, expr: UdfExpr, ta: int, tb: int) -> None:
    if isinstance(expr, Const):
        builder.push(expr.value)
        return
    if isinstance(expr, Arg):
        builder.get_local(expr.index)
        return
    if isinstance(expr, BinOp):
        _emit(builder, expr.left, ta, tb)
        _emit(builder, expr.right, ta, tb)
        builder.alu(_BINOP_TO_WOP[expr.op])
        return
    if isinstance(expr, Call):
        if expr.func in ("min", "max"):
            _emit_minmax(builder, expr, ta, tb)
            return
    raise ReproError(f"cannot compile node {expr!r}")


def _emit_minmax(builder: WasmBuilder, expr: Call, ta: int, tb: int) -> None:
    compare = WOp.LE_U if expr.func == "min" else WOp.GE_U
    uid = next(_label_ids)
    take_left = f"_{expr.func}_l{uid}"
    end = f"_{expr.func}_e{uid}"
    _emit(builder, expr.args[0], ta, tb)
    _emit(builder, expr.args[1], ta, tb)
    builder.set_local(tb)
    builder.set_local(ta)
    builder.get_local(ta)
    builder.get_local(tb)
    builder.alu(compare)
    builder.br_if(take_left)
    builder.get_local(tb)
    builder.br(end)
    builder.label(take_left)
    builder.get_local(ta)
    builder.label(end)

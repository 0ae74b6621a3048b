"""Id-stream census: every ``itertools.count`` above function level.

An id minted from a module- or class-level counter depends on whatever
ran earlier in the process; one that reaches a trace breaks "same seed,
same digest".  Ids a simulation mints belong on its
:class:`~repro.sim.core.Ids`.  A process-wide stream is allowed only
for an id that never reaches a trace, and adding one is an edit to
this list, with its reason.
"""

import ast
from pathlib import Path

import repro

_SRC = Path(repro.__file__).parent

#: (module path under ``repro/``, name) -> why it stays process-wide.
ALLOWED = {
    ("ebpf/program.py", "_prog_ids"):
        "a program is a value built once and deployed into many worlds",
    ("ebpf/maps.py", "_map_ids"):
        "a map is built with its program, before any simulation exists",
    ("wasm/module.py", "_module_ids"):
        "a module is a value built once and deployed into many worlds",
    ("udf/engine.py", "_query_ids"):
        "a caller builds a Query with no simulation in reach; off-trace",
    ("udf/compiler.py", "_label_ids"):
        "labels resolve to offsets at build; only uniqueness matters",
}


def _is_count(node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute) and func.attr == "count"
        and isinstance(func.value, ast.Name) and func.value.id == "itertools"
    ) or (isinstance(func, ast.Name) and func.id == "count")


def _counters(body: list, path: str):
    """(path, name) of every count bound in ``body`` or a class in it."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from _counters(stmt.body, path)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
            if any(_is_count(node) for node in ast.walk(stmt.value)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                for target in targets:
                    yield path, ast.unparse(target)


def test_process_wide_id_streams_are_exactly_the_allowlist():
    found = {
        counter
        for file in _SRC.rglob("*.py")
        for counter in _counters(
            ast.parse(file.read_text()).body, file.relative_to(_SRC).as_posix()
        )
    }
    assert found == set(ALLOWED)
    assert len(ALLOWED) == 5


def test_the_census_sees_module_and_class_counters():
    source = (
        "import itertools\nfrom itertools import count\n"
        "a = itertools.count(1)\n"
        "class K:\n    b = count(7)\n"
        "    def __init__(self):\n        self.c = itertools.count()\n"
    )
    assert list(_counters(ast.parse(source).body, "m.py")) == [
        ("m.py", "a"), ("m.py", "b"),
    ]

"""Function-entry census: every ``src/repro`` function nothing enters.

    python -m tests.census [--all] [pytest args ...]

Installs a ``sys.settrace`` hook that records each code object entered,
runs tier-1 in this process (``pytest tests``, or the pytest arguments
given), and with ``--all`` also every ``cli <command> --quick``, ``cli
fuzz --scenario all --iterations 2``, ``cli fuzz --replay``,
``examples/*.py`` and ``repro.exp.hb_schedules``.  Then it prints each
function or method defined under ``src/repro`` whose code never ran,
as ``path:line qualname``, and how many of how many that is.

``sys.settrace`` and not ``sys.setprofile``: the cost table
(``tests/test_cost_oracle.py``) counts calls with a profile hook of
its own, which would replace this one for the rest of the run.  Nothing from ``repro`` is imported before
the hook is in place, so what runs at import is counted too.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def functions() -> dict[tuple[str, int], str]:
    """``(file, first line) -> qualified name`` of every function and
    method under ``src/repro``.  The first line is a code object's
    ``co_firstlineno``: the first decorator's, when there is one."""
    found = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), "")
    return found


def _cli(*argv: str) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(list(argv))


def _everything_else() -> None:
    """The entry points beyond tier-1, output discarded."""
    from repro.cli import EXPERIMENTS

    commands = sorted(EXPERIMENTS) + [
        "blackbox", "faults", "races", "recover", "serve", "telemetry",
    ]
    for command in commands:
        print(f"census: cli {command} --quick", file=sys.stderr)
        _cli(command, "--quick")
    with tempfile.TemporaryDirectory(prefix="census-corpus-") as corpus:
        print("census: cli fuzz --scenario all --iterations 2", file=sys.stderr)
        _cli("fuzz", "--scenario", "all", "--iterations", "2", "--corpus-dir", corpus)
    print("census: cli fuzz --replay", file=sys.stderr)
    _cli("fuzz", "--replay", "--corpus-dir", str(ROOT / "corpus" / "schedules"))
    for example in sorted((ROOT / "examples").glob("*.py")):
        print(f"census: {example.relative_to(ROOT)}", file=sys.stderr)
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")
    print("census: repro.exp.hb_schedules", file=sys.stderr)
    from repro.exp import hb_schedules

    with contextlib.redirect_stdout(io.StringIO()):
        hb_schedules.main()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--all", action="store_true",
        help="also the CLI, the fuzzer, examples/ and hb_schedules",
    )
    args, pytest_args = parser.parse_known_args(argv)

    entered: set = set()

    def on_call(frame, _event, _arg):
        entered.add(frame.f_code)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        import pytest

        tier1 = ["-p", "no:cacheprovider", str(ROOT / "tests")]
        status = pytest.main(pytest_args or tier1)
        if args.all:
            _everything_else()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    ran = {(code.co_filename, code.co_firstlineno) for code in entered}
    defined = functions()
    unentered = sorted(key for key in defined if key not in ran)
    for path, line in unentered:
        print(f"{Path(path).relative_to(ROOT)}:{line} {defined[path, line]}")
    print(f"{len(unentered)} of {len(defined)} functions unentered")
    if status:
        print(f"pytest exited {int(status)}: the census is incomplete")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())

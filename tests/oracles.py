"""Oracle tables against another revision.

    python -m tests.oracles --check-against <rev> [-v]

Every file in :data:`ORACLES` prints its table from its ``__main__``.
This runs each one twice -- against ``<rev>``'s ``src/`` (the revision
exported with ``git archive`` into a temporary directory) and against
the working tree's -- and names every row whose printed value moved,
appeared or disappeared; ``-v`` prints both values.  The script is the
working tree's both times, so a row that moved is a change in what the
code does, never an edit of the table.  Exits 1 when a row moved or a
run failed.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The files under tests/ whose ``__main__`` prints a table.
ORACLES = (
    "test_artifact_oracle.py",
    "test_broadcast_oracle.py",
    "test_cost_oracle.py",
    "test_decode_oracle.py",
    "test_deploy_oracle.py",
    "test_ebpf_interpreter.py",
    "test_jit_oracle.py",
    "test_mem_write_oracle.py",
    "test_sim_ids.py",
    "test_sim_order_oracle.py",
    "test_transport_oracle.py",
    "test_verifier_oracle.py",
    "test_wasm.py",
)
_TABLE = re.compile(r"([A-Z_][A-Z0-9_]*) = [{\[(]$")


def _key(line: str):
    """The key source of a ``key: value`` line, else None."""
    table = _TABLE.match(line)
    if table:
        return table.group(1)
    at = line.find(": ")
    while at > 0:
        try:
            ast.literal_eval(line[:at])
        except (SyntaxError, ValueError):
            at = line.find(": ", at + 1)
        else:
            return line[:at]
    return None


def rows(output: str) -> dict[str, str]:
    """``{row name: printed value}`` of every keyed line of a table.

    A row is named by its keys from the table down, e.g.
    ``ORACLE['pipelined']['warm']``; its value is the rest of its line
    plus every unkeyed line up to the next key (a multi-line value).
    """
    found: dict[str, str] = {}
    stack: list[tuple[int, str]] = []
    for line in output.splitlines():
        text = line.strip()
        if not text or text[0] in "#)]}":
            continue
        key = _key(text)
        if key is None:
            if stack:
                found[_name(stack)] += "\n" + text
            continue
        indent = len(line) - len(line.lstrip())
        while stack and stack[-1][0] >= indent:
            stack.pop()
        stack.append((indent, key))
        found[_name(stack)] = text[len(key) :].lstrip(" :=")
    return found


def _name(stack) -> str:
    head, *keys = (key for _, key in stack)
    return head + "".join(f"[{key}]" for key in keys)


def moved(old: dict[str, str], new: dict[str, str]) -> list[tuple[str, str]]:
    """``(verdict, row name)`` for every row that differs, in table order."""
    changes = [
        ("moved" if name in old else "added", name)
        for name, value in new.items() if old.get(name) != value
    ]
    changes += [("removed", name) for name in old if name not in new]
    return changes


def run(tree: Path, script: Path) -> str:
    """The table ``script`` prints against ``tree``'s ``src/``."""
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tree, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if result.returncode:
        last = result.stderr.strip().splitlines() or [f"exit {result.returncode}"]
        raise RuntimeError(last[-1])
    return result.stdout


def export(rev: str, into: Path) -> None:
    """Write ``rev``'s committed tree into ``into``."""
    archive = subprocess.Popen(
        ["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


def check_against(rev: str, verbose: bool = False) -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="oracles-") as tmp:
        other = Path(tmp)
        export(rev, other)
        for name in ORACLES:
            script = ROOT / "tests" / name
            shutil.copy(script, other / "tests" / name)
            try:
                old = rows(run(other, other / "tests" / name))
                new = rows(run(ROOT, script))
            except RuntimeError as err:
                print(f"{name}: FAILED ({err})")
                failed += 1
                continue
            changes = moved(old, new)
            if not changes:
                print(f"{name}: no row moved ({len(new)} rows)")
                continue
            failed += 1
            print(f"{name}: {len(changes)} of {len(new)} rows changed")
            for verdict, row in changes:
                print(f"  {verdict:7} {row}")
                if verbose:
                    for mark, table in (("-", old), ("+", new)):
                        if row in table:
                            print(f"    {mark} {table[row]}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check-against", required=True, metavar="REV")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print both values of each changed row")
    args = parser.parse_args(argv)
    return check_against(args.check_against, args.verbose)


if __name__ == "__main__":
    sys.exit(main())

"""Named regressions that the cost table or a named test must catch.

    python -m tests.mutants [-v] [NAME ...]

Each mutant is a source patch -- exact replacements in ``src/repro`` --
that takes back one saving or one guard, and names its claim: a claim
of ``tests/test_cost_oracle.py``, or a pytest node id (``path::test``).
The working tree's ``src/``, ``tests/`` and ``pyproject.toml`` are
copied into a temporary directory; there the claim is checked in a
fresh interpreter once as is, where it must hold (a node id: pass), and
once with the patch applied, where it must fail.  Exits 1 when a mutant
survives, its claim fails unpatched, its patch no longer applies or a
check crashes; ``-v`` prints the crash.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    what: str
    #: A cost-table claim, or a pytest node id when it holds ``::``.
    claim: str
    #: ``(file under src/repro, old text, new text)`` each.
    patch: tuple


MUTANTS = {
    "chain-posted-alone": Mutant(
        "the install chain's commit CAS and each doorbell posted on their own",
        "warm-commit-is-a-fence-read-and-one-chain[deploy]",
        (
            ("core/sync.py", "commit = qword_addr is not None and depth > 1\n",
             "commit = qword_addr is not None and depth > 1 and not ops\n"),
            ("core/sync.py", "doorbells = len(flush) if depth > 1 else 0", "doorbells = 0"),
            ("core/sync.py", "rang = chained and self._depth > 1", "rang = False"),
        ),
    ),
    "fence-before-dispatch": Mutant(
        "the epoch-fence READ posted after the dispatch, not under it",
        "fence-read-flies-under-the-dispatch",
        (("params.py", "PIPELINED = Schedule(RDX_SQ_DEPTH, False,", "PIPELINED = Schedule(RDX_SQ_DEPTH, True,"),),
    ),
    "body-write-in-window": Mutant(
        "each flip re-posts its image's last WRITE, inside the bubble window",
        "flat-window-moves-no-body-byte",
        (("core/codeflow.py", "[], hook_addr, expect, new, [(hook_addr, 8)], note=note",
          "plan.writes[-1:] if plan else [], hook_addr, expect, new,\n"
          "                [(hook_addr, 8)], note=note"),),
    ),
    "compile-holds-a-worker": Mutant(
        "a serve worker runs its ticket's compile instead of spawning it",
        "compile-holds-no-worker",
        (("serve/service.py", 'self.sim.spawn(self._compile(ticket), name="serve.compile")',
          "yield from self._compile(ticket)"),),
    ),
    "compiles-take-every-core": Mutant(
        "compile_slots equal to the control host's cores",
        "hotpatch-dispatches-on-a-core-no-compile-takes",
        (("core/control_plane.py", "Resource(self.sim, cores - 1) if cores > 2",
          "Resource(self.sim, cores) if cores > 2"),),
    ),
    "rendezvous-every-deploy": Mutant(
        "the stub rendezvous paid on every deploy",
        "paid-once[delta-patch]",
        (("core/codeflow.py", "if not (\n            self._last_link_cached\n"
          "            or self._layout_matches(self._owner(hook_name))\n        ):",
          "if True:"),),
    ),
    "implicit-commit-doorbell": Mutant(
        "an install rings one more doorbell for its commit qword's line",
        "xstate-deploy-rings-one-doorbell",
        (("core/sync.py", "doorbells = len(flush) if depth > 1 else 0",
          "doorbells = len(flush) + commit if depth > 1 else 0"),),
    ),
    "intent-never-aborts": Mutant(
        "the intent bracket's exit leaves a failed operation's INTEND open",
        "tests/test_core_codeflow.py::TestXState::test_destroy_after_its_meta_entry_moved_aborts",
        (("core/control_plane.py", "        elif not self.plane.crashed:\n",
          "        elif False:\n"),),
    ),
    "xstate-destroy-unfenced": Mutant(
        "destroy_xstate posts its CAS without the epoch-fence read",
        "tests/test_core_codeflow.py::TestXState::test_destroy_is_fenced",
        (("core/codeflow.py", '''"""Clear the meta entry and free the chunk."""
        yield from self.check_fence()''', '''"""Clear the meta entry and free the chunk."""'''),),
    ),
    "lower-failure-escapes": Mutant(
        "a failed bubble lower re-raises instead of being counted",
        "tests/test_core_broadcast.py::TestBubbleLeak::"
        "test_target_dead_under_its_raised_bubble_is_counted_not_raised",
        (("core/broadcast.py", '''            self.control_plane.obs.counter(
                "rdx.broadcast.bubble_lower_failed",''', '''            raise
            self.control_plane.obs.counter(
                "rdx.broadcast.bubble_lower_failed",'''),),
    ),
}

_CHECK = (
    "import sys\n"
    "from tests import test_cost_oracle as cost\n"
    "scenario, holds = cost.CLAIMS[sys.argv[1]]\n"
    "sys.exit(0 if holds(cost.live(scenario)) else 3)\n"
)


def check(tree: Path, claim: str) -> tuple[int, str]:
    """``(exit code, last output line)`` of ``claim`` against ``tree``:
    0 it holds, 3 it fails, anything else a crash."""
    if "::" in claim:
        argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", claim]
    else:
        argv = ["-c", _CHECK, claim]
    result = subprocess.run(
        [sys.executable, *argv], cwd=tree, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{tree}"},
    )
    code = result.returncode
    if "::" in claim:
        # pytest: 0 passed, 1 a test failed; the rest are crashes.
        code = {0: 0, 1: 3}.get(code, 2)
    output = result.stderr.strip() or result.stdout.strip()
    return code, (output.splitlines() or [""])[-1]


def verdict(tree: Path, mutant: Mutant) -> tuple[str, str]:
    """``(verdict, detail)``: ``caught`` is the only good one."""
    code, detail = check(tree, mutant.claim)
    if code:
        return "fails unpatched", detail
    originals = {}
    try:
        for file, old, new in mutant.patch:
            path = tree / "src" / "repro" / file
            text = path.read_text()
            originals.setdefault(path, text)
            if text.count(old) != 1:
                return "patch does not apply", f"{file}: {old!r}"
            path.write_text(text.replace(old, new))
        code, detail = check(tree, mutant.claim)
    finally:
        for path, text in originals.items():
            path.write_text(text)
    return {0: "SURVIVED", 3: "caught"}.get(code, "crashed"), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="default: every mutant")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    for name in set(args.names) - set(MUTANTS):
        parser.error(f"no mutant {name!r}")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        for name in args.names or MUTANTS:
            mutant = MUTANTS[name]
            result, detail = verdict(tree, mutant)
            failed += result != "caught"
            print(f"{name}: {result} by {mutant.claim} ({mutant.what})")
            if args.verbose and result != "caught":
                print(f"    {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Knob census: every ``RDX_*`` name ``src/`` reads from the environment.

Each independently settable switch doubles the configurations the
tests and benchmarks have to cover, so adding one should be a visible
edit to this list, not a side effect of a feature PR.  Removing one is
an edit here too -- the list only shrinks on purpose.
"""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import repro
from repro import params
from repro.params import Config

#: Read where they are used, by literal name.
ENV_KNOBS = ["RDX_BENCH_DIR", "RDX_FAULT_SEED"]
#: Read by :meth:`Config.from_env`, one per field, and nowhere else.
CONFIG_KNOBS = [
    "RDX_HB_CHECK",
    "RDX_OBS",
    "RDX_OBS_TARGET_LABELS",
    "RDX_PIPELINED_DEPLOY",
    "RDX_TREE_BROADCAST",
    "RDX_TREE_DEGREE",
]

#: ``os.environ.get("RDX_X"`` / ``os.environ["RDX_X"`` / ``environ.get(
#: <newline> "RDX_X"`` -- the name may sit on the line after the call.
_ENV_READ = re.compile(r"environ(?:\.get)?\s*[(\[]\s*[\"'](RDX_[A-Z0-9_]+)")
_SRC = Path(repro.__file__).parent


def test_env_knobs_under_src_are_exactly_the_census():
    found = set()
    for path in _SRC.rglob("*.py"):
        found.update(_ENV_READ.findall(path.read_text()))
    assert sorted(found) == ENV_KNOBS
    assert sorted(
        f"RDX_{field.name.upper()}" for field in fields(Config)
    ) == CONFIG_KNOBS
    assert len(ENV_KNOBS) + len(CONFIG_KNOBS) == 8
    # ...and nothing else looks at the environment at all: the six
    # are spelled from the field names, inside ``Config.from_env`` only.
    assert sorted(
        str(path.relative_to(_SRC))
        for path in _SRC.rglob("*.py") if "os.environ" in path.read_text()
    ) == ["exp/harness.py", "exp/recovery_campaign.py", "params.py"]
    assert inspect.getsource(Config.from_env).count("os.environ") == (
        inspect.getsource(params).count("os.environ")
    ) == 1

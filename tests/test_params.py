"""Knob census: every ``RDX_*`` name ``src/`` reads from the environment.

Each independently settable switch doubles the configurations the
tests and benchmarks have to cover, so adding one should be a visible
edit to this list, not a side effect of a feature PR.  Removing one is
an edit here too -- the list only shrinks on purpose.
"""

import re
from pathlib import Path

import repro

ENV_KNOBS = [
    "RDX_BENCH_DIR",
    "RDX_BROADCAST_SHARDS",
    "RDX_DELTA_DEPLOY",
    "RDX_DELTA_MAX_CHUNKS",
    "RDX_FAULT_SEED",
    "RDX_FUZZ",
    "RDX_HB_CHECK",
    "RDX_HEALTH_BATCH_SWEEP",
    "RDX_OBS",
    "RDX_OBS_TARGET_LABELS",
    "RDX_PIPELINED_DEPLOY",
    "RDX_SERVE_MAX_THROTTLE_US",
    "RDX_SERVE_QUEUE_DEPTH",
    "RDX_SERVE_WORKERS",
    "RDX_SQ_DEPTH",
    "RDX_TREE_BROADCAST",
    "RDX_TREE_DEGREE",
    "RDX_WARM_POOL_ADMIT_DEPLOYS",
    "RDX_WARM_POOL_CAP",
]

#: ``os.environ.get("RDX_X"`` / ``os.environ["RDX_X"`` / ``environ.get(
#: <newline> "RDX_X"`` -- the name may sit on the line after the call.
_ENV_READ = re.compile(r"environ(?:\.get)?\s*[(\[]\s*[\"'](RDX_[A-Z0-9_]+)")


def test_env_knobs_under_src_are_exactly_the_census():
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        found.update(_ENV_READ.findall(path.read_text()))
    assert sorted(found) == ENV_KNOBS
    assert len(ENV_KNOBS) == 19

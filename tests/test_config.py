"""Configuration is a value: one frozen ``Config`` per simulation.

What that buys, each as a test the mutable ``params`` switches could
not pass: arms side by side in one process with no restore step, a
census showing nothing writes ``repro.params`` any more, the
environment parsed from a plain mapping, and a simulator whose arm
cannot change once a component has read it.
"""

import ast
from dataclasses import FrozenInstanceError, fields, replace
from itertools import zip_longest
from pathlib import Path

import pytest

from repro import params
from repro.exp.harness import make_testbed
from repro.hb import checker
from repro.obs import telemetry_of
from repro.params import DEFAULT, Config, config_of, configure
from repro.sim.core import Simulator
from tests import test_broadcast_oracle as broadcast_oracle
from tests import test_deploy_oracle as deploy_oracle

ROOT = Path(__file__).parent.parent


# -- (a) two arms, one process, no restore step -------------------------------


def _interleaved(streams: dict) -> dict:
    """Advance every generator one step at a time, round-robin, until
    all are spent: name -> what it yielded, in order."""
    spent = object()
    turns = zip_longest(*streams.values(), fillvalue=spent)
    return {
        name: [step for step in column if step is not spent]
        for name, column in zip(streams, zip(*turns))
    }


def test_arms_interleaved_match_the_rows_each_pins_alone():
    """Serial and pipelined testbeds and a flat and a degree-2 tree
    rack, all alive at once and taking turns deploy by deploy
    (broadcasts: abort, clean, abort): every step is the row that arm
    pins alone in ``test_deploy_oracle`` / ``test_broadcast_oracle``.

    Every id a rack mints comes from its own simulator, so nothing is
    pinned around building or running any of them."""
    racks = {
        arm: broadcast_oracle.Rack(broadcast_oracle.ARMS[arm])
        for arm in ("flat", "tree-d2")
    }
    abort = broadcast_oracle.SCENARIOS["abort"]
    got = _interleaved({
        **{arm: deploy_oracle.arm_steps(arm) for arm in deploy_oracle.ARMS},
        **{
            arm: broadcast_oracle.rack_rounds(rack, abort)
            for arm, rack in racks.items()
        },
    })
    for arm in deploy_oracle.ARMS:
        deploy_oracle.assert_matches_parent(arm, dict(got[arm]))
    for arm, rack in racks.items():
        broadcast_oracle.assert_matches_parent(arm, "abort", got[arm])
        checker.consume(rack.sim)


# -- (b) nothing writes repro.params ------------------------------------------

_PARAMS = ("params", "repro.params")


def _writes_to_params(source: str) -> list:
    """Lines that bind (assign, delete, loop into) or ``setattr`` an
    attribute of ``repro.params`` -- ``monkeypatch.setattr`` included,
    by object or by dotted string -- or import it under another name."""
    if "params" not in source:
        return []  # every spelling above names it; skip the parse
    lines = []
    for node in ast.walk(ast.parse(source)):
        bound = getattr(node, "targets", [getattr(node, "target", None)])
        hit = any(
            isinstance(leaf, ast.Attribute)
            and ast.unparse(leaf.value) in _PARAMS
            for target in bound if target is not None
            for leaf in ast.walk(target)  # tuple targets unpack
        )
        if isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            what = ast.unparse(node.args[0]).strip("'\"")
            hit = name in ("setattr", "delattr") and (
                what in _PARAMS or what.startswith("repro.params.")
            )
        if isinstance(node, ast.alias):
            hit = bool(node.asname) and node.name in _PARAMS
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_nothing_assigns_or_patches_a_params_attribute():
    """56 such lines at 8a4137a; a switch is a ``Config`` field now."""
    assert _writes_to_params(
        "import repro.params as p\n"
        "params.RDX_OBS = False\n"
        "a, params.X = 1, 2\n"
        "params.N += 1\n"
        "del repro.params.N\n"
        "setattr(params, 'N', 1)\n"
        "monkeypatch.setattr(params, 'N', 1)\n"
        "monkeypatch.setattr('repro.params.N', 1)\n"
        "x = params.N; config.n = 1\n"
    ) == [1, 2, 3, 4, 5, 6, 7, 8]  # the census sees every spelling
    files = [
        path
        for top in ("src", "tests", "benchmarks")
        for path in (ROOT / top).rglob("*.py")
    ]
    assert len(files) > 150
    assert [
        f"{path.relative_to(ROOT)}:{line}"
        for path in files
        for line in _writes_to_params(path.read_text())
    ] == []
    # ...nor can anything write one: the value is frozen, and the module
    # global each field replaced is gone.
    for field in fields(Config):
        with pytest.raises(FrozenInstanceError):
            setattr(DEFAULT, field.name, getattr(DEFAULT, field.name))
        assert not hasattr(params, f"RDX_{field.name.upper()}")


# -- (c) the environment is a mapping -----------------------------------------


def test_from_env_reads_a_mapping_not_the_process(monkeypatch):
    monkeypatch.setenv("RDX_OBS", "0")  # must not be looked at
    assert Config.from_env({}) == Config()
    for off in ("0", "false", "no", "off", "False", "OFF", " no "):
        assert Config.from_env(
            {"RDX_OBS": off, "RDX_PIPELINED_DEPLOY": off}
        ) == Config(obs=False, pipelined_deploy=False)
    for on in ("1", "true", "yes", "on", "2"):
        assert Config.from_env(
            {"RDX_HB_CHECK": on, "RDX_OBS_TARGET_LABELS": on}
        ) == Config(hb_check=True, obs_target_labels=True)
    # Unset and empty both mean the field's default, either polarity;
    # a name that is not a field (``RDX_FUZZ`` was one) is not read.
    assert Config.from_env({"RDX_OBS": "", "RDX_HB_CHECK": ""}) == Config()
    assert Config.from_env(
        {"RDX_TREE_BROADCAST": "1", "RDX_TREE_DEGREE": "2", "RDX_FUZZ": "1"}
    ) == Config(tree_broadcast=True, tree_degree=2)
    with pytest.raises(ValueError):
        Config.from_env({"RDX_TREE_DEGREE": "wide"})


# -- (d) fixed before the first component --------------------------------------


def test_config_cannot_change_under_a_bound_component():
    arm = replace(DEFAULT, pipelined_deploy=not DEFAULT.pipelined_deploy)
    sim = Simulator()
    telemetry_of(sim)  # the hub read its label switch: the arm is settled
    assert config_of(sim) is DEFAULT
    with pytest.raises(RuntimeError, match="first component"):
        make_testbed(sim=sim, config=arm)
    with pytest.raises(RuntimeError):
        configure(sim, arm)

    # A pre-configured simulator (the fuzz engine's route) keeps its arm.
    sim = Simulator()
    configure(sim, arm)
    bed = make_testbed(sim=sim)
    assert bed.codeflow.config is bed.control.config is arm
    with pytest.raises(RuntimeError):
        make_testbed(sim=sim, config=DEFAULT)

"""A run is a pure function of its own simulator.

Every id a simulation mints (QP numbers, WR ids, rkeys, sandbox ids,
...) comes from that simulator's :class:`~repro.sim.core.Ids`, so a
world built second in a process, or in another process, is the same
world as the first.  Program, map and wasm-module ids stay process-wide
(they name values, not a world's objects); the corpus replay below pins
that they never reach a trace digest.
"""

import multiprocessing
from collections import deque
from itertools import islice

from repro.ebpf import maps, program
from repro.exp.harness import make_testbed
from repro.fuzz import corpus
from repro.fuzz.engine import run_plan
from repro.fuzz.plan import SchedulePlan
from repro.fuzz.scenarios import get
from repro.params import DEFAULT, Config
from repro.wasm import module


def _world(bed) -> dict:
    """Every identity a testbed's construction minted."""
    syncs = [flow.sync for flow in bed.codeflows]
    return {
        "sandboxes": [(sb.name, sb.sandbox_id) for sb in bed.sandboxes],
        "helpers": [sb.ctx_manifest.helper_addresses for sb in bed.sandboxes],
        "lock_tokens": [flow._lock_token for flow in bed.codeflows],
        "qpns": [sync.qp.qpn for sync in syncs],
        "rkeys": [sync.rkey for sync in syncs],
        "pds": [sync.qp.pd.handle for sync in syncs],
        "jitter": [sync._rng.random() for sync in syncs],
    }


def test_two_worlds_built_back_to_back_are_the_same_world():
    first = _world(make_testbed(n_hosts=2, seed=3))
    assert first == _world(make_testbed(n_hosts=2, seed=3))
    assert [name for name, _ in first["sandboxes"]] == ["node0.sb1", "node1.sb2"]


def _digest(name: str, seed: int) -> str:
    return run_plan(get(name), SchedulePlan(seed=seed, scenario=name)).digest


def test_a_fuzz_run_ignores_worlds_built_before_it():
    first = _digest("bubble-sweep", 4)
    make_testbed(n_hosts=2, seed=9)
    assert _digest("bubble-sweep", 4) == first


def test_spawned_workers_reproduce_the_in_process_digest():
    here = _digest("broadcast-8", 5)
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        assert pool.starmap(_digest, [("broadcast-8", 5)] * 2) == [here, here]


def _advance(counter, n: int = 10**5) -> None:
    deque(islice(counter, n), maxlen=0)


def _replayed(entries) -> list:
    return [corpus.replay(entry)[0].digest for entry in entries]


def test_value_ids_stay_out_of_every_corpus_digest():
    entries = corpus.load_dir(corpus.DEFAULT_DIR)
    assert len(entries) == 8
    before = _replayed(entries)
    for counter in (program._prog_ids, maps._map_ids, module._module_ids):
        _advance(counter)
    assert _replayed(entries) == before
    if DEFAULT == Config():  # the arm the corpus was recorded on
        assert before == [entry.meta["digest"] for entry in entries]


if __name__ == "__main__":
    # One ``file: kinds digest`` row per corpus replay, so
    # ``python -m tests.oracles --check-against <rev>`` names each
    # corpus schedule a change moves.
    print("CORPUS = {")
    for entry in corpus.load_dir(corpus.DEFAULT_DIR):
        result, _ = corpus.replay(entry)
        print(f"    {entry.filename!r}: {' '.join(result.kinds)} {result.digest}")
    print("}")

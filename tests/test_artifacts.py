"""The control plane's artifact store (repro.core.artifacts).

The stages' observable behaviour is pinned step by step in
``tests/test_artifact_oracle.py``; these tests pin the store's own
invariants: one LRU, indexes bounded by their stage, one key, and a
recall that reaches every stage.
"""

import pytest

from repro.core.artifacts import Stage, verdict_key
from repro.core.xstate import XStateSpec
from repro.ebpf.loader import LocalLoader
from repro.ebpf.maps import BpfMap, MapType
from repro.ebpf.stress import make_stress_program


def test_stage_is_an_lru_bounded_by_its_cap():
    evicted = []
    stage = Stage(2, on_evict=lambda key, entry: evicted.append((key, entry)))
    stage.put(("a",), 1)
    stage.put(("b",), 2)
    assert stage.get(("a",)) == 1  # touched: "b" is now the coldest
    assert stage.get(("z",)) is None
    stage.put(("c",), 3)
    assert list(stage.entries) == [("a",), ("c",)]
    assert evicted == [(("b",), 2)]
    stage.put(("a",), 4)  # in place: no eviction, recency unchanged
    assert list(stage.entries) == [("a",), ("c",)] and stage.evictions == 1
    assert stage.drop(lambda key: key == ("c",)) == 1
    assert len(stage) == 1 and stage.evictions == 2


@pytest.mark.arm(pipelined_deploy=True)
def test_every_index_stays_within_its_stage_cap(testbed):
    bed = testbed
    store = bed.control.artifacts
    pins = store.serve()
    for stage in (store.registry, store.linked, pins):
        stage.cap = 2
    programs = [make_stress_program(120, seed=40 + i, name=f"p{i}") for i in range(5)]

    def assert_bounded():
        for stage in (store.registry, store.linked, pins):
            assert len(stage) <= stage.cap
        # The pin index holds each resident pin once, and nothing else.
        assert sum(map(len, pins._layouts.values())) == len(pins)
        assert not store._inflight

    for program in programs + programs[::-1]:
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
        assert_bounded()
    assert pins.evictions and store.registry.evictions
    store.invalidate(programs[0].tag())
    assert_bounded()
    store.invalidate()
    assert (len(store.registry), len(store.linked), len(pins)) == (0, 0, 0)
    assert pins._layouts == {}


@pytest.mark.arm(pipelined_deploy=True)
def test_invalidate_reaches_every_stage(testbed):
    bed = testbed
    store = bed.control.artifacts
    pins = store.serve()
    keep, recall = (make_stress_program(150, seed=s, name=f"p{s}") for s in (1, 2))
    for program in (keep, recall):
        bed.sim.run_process(bed.control.inject(bed.codeflow, program, "ingress"))
    assert (len(store.registry), len(store.linked), len(pins)) == (2, 2, 2)
    assert pins.invalidate(recall.tag()) == 1
    assert (len(store.registry), len(store.linked), len(pins)) == (1, 1, 1)
    assert all(key[0] == keep.tag() for key in store.registry.entries)
    assert all(key[0] == keep.tag() for key in pins.entries)


@pytest.mark.arm(pipelined_deploy=True)
def test_every_key_is_the_verdict_key(testbed):
    """The registry, the pin stage and the agent loader's memo all key on
    :func:`verdict_key` -- the one place map geometry enters a key."""
    bed = testbed
    codeflow = bed.codeflow
    store = bed.control.artifacts
    pins = store.serve()
    bed.sim.run_process(
        codeflow.deploy_xstate(XStateSpec("stress_map", MapType.ARRAY, 4, 8, 4))
    )
    program = make_stress_program(300, seed=1, with_map=True)
    bed.sim.run_process(bed.control.inject(codeflow, program, "ingress"))
    verdict = store.target_key(codeflow, program)
    assert verdict == verdict_key(program, "x86_64", [BpfMap(MapType.ARRAY, 4, 8, 4)])
    assert list(store.registry.entries) == [verdict]
    (pin_key,) = pins.entries
    assert pin_key[:-1] == verdict

    loader = LocalLoader()
    wide = BpfMap(MapType.ARRAY, 4, 8, 4, name="stress_map")
    loader.verify_and_jit(program, [wide])
    assert list(loader._memo) == [verdict]

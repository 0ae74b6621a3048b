"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import settings

from repro.exp.harness import Testbed, make_testbed
from repro.params import DEFAULT, Config
from repro.sim.core import Simulator

#: ``--hypothesis-profile=ci`` (CI's fuzz-smoke job, with a pinned
#: ``--hypothesis-seed``): the budget for the differentials that leave
#: ``max_examples`` to the profile -- the decode and cache-read oracles.
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def config(request) -> Config:
    """The arm this test runs: the process default (``RDX_*`` in the
    environment) with the fields its ``arm`` marker pins.  A test about
    what only one arm has (a WR chain to tear, a delta plan, per-target
    series) pins that arm and so means the same in every CI run."""
    fields = {}
    for marker in reversed(list(request.node.iter_markers("arm"))):
        fields.update(marker.kwargs)  # module, then class, then test
    return replace(DEFAULT, **fields)


@pytest.fixture
def testbed(config) -> Testbed:
    """A small standard testbed: 1 data host + control host."""
    return make_testbed(n_hosts=1, cores_per_host=4, config=config)


@pytest.fixture
def testbed2(config) -> Testbed:
    """Two data hosts (for broadcast/migration tests)."""
    return make_testbed(n_hosts=2, cores_per_host=4, config=config)


@pytest.fixture(autouse=True)
def _hb_check():
    """Race-check every simulation a test touched.

    Every sim that emitted an hb event (its config has ``hb_check`` --
    ``RDX_HB_CHECK=1`` for the whole run, or the test's own arm) is
    registered in :mod:`repro.hb.events`; at teardown each one's trace
    is run through the detectors and any finding fails the test.
    Tests that deliberately construct a race consume their sim first
    (``checker.consume(sim)``) so it is no longer registered here.
    """
    from repro.hb import checker

    checker.reset_active()
    yield
    reports = checker.check_active()
    checker.reset_active()
    findings = [f for _sim, report in reports for f in report.findings]
    if findings:
        pytest.fail(
            "happens-before race(s) detected:\n"
            + checker.format_findings(findings),
            pytrace=False,
        )

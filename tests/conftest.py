"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import params
from repro.exp.harness import Testbed, make_testbed
from repro.sim.core import Simulator

#: ``--hypothesis-profile=ci`` (CI's fuzz-smoke job, with a pinned
#: ``--hypothesis-seed``): the budget for the differentials that leave
#: ``max_examples`` to the profile -- the decode and cache-read oracles.
settings.register_profile("ci", max_examples=2000, deadline=None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def testbed() -> Testbed:
    """A small standard testbed: 1 data host + control host."""
    return make_testbed(n_hosts=1, cores_per_host=4)


@pytest.fixture
def testbed2() -> Testbed:
    """Two data hosts (for broadcast/migration tests)."""
    return make_testbed(n_hosts=2, cores_per_host=4)


@pytest.fixture
def pin_pipelined(monkeypatch):
    """Hold the pipelined deploy arm for tests about what only it has
    (a WR chain to tear, link-cache counters), so they stay meaningful
    in CI's ``RDX_PIPELINED_DEPLOY=0`` run."""
    monkeypatch.setattr(params, "RDX_PIPELINED_DEPLOY", True)


@pytest.fixture(autouse=True)
def _hb_check():
    """Race-check every simulation a test touched (RDX_HB_CHECK=1).

    When checking is enabled, every sim that emitted an hb event is
    registered in :mod:`repro.hb.events`; at teardown each one's trace
    is run through the detectors and any finding fails the test.
    Tests that deliberately construct a race consume their sim first
    (``checker.consume(sim)``) so it is no longer registered here.
    """
    from repro.hb import checker, enabled

    if not enabled():
        yield
        return
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

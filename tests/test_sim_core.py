"""Unit tests for the discrete-event kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.core import Interrupt, Simulator, SimulationError


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_timeout_advances_clock(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5)
            return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_timeout_value_passthrough(self):
        sim = Simulator()

        def proc():
            value = yield sim.timeout(1, value="hello")
            return value

        assert sim.run_process(proc()) == "hello"

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_nan_timeout_rejected(self):
        """``nan < 0`` is false: a NaN delay used to be accepted, sort
        arbitrarily and leave ``sim.now == nan`` for the rest of the run."""
        sim = Simulator()
        with pytest.raises(ValueError, match="negative timeout delay: nan"):
            sim.timeout(float("nan"))
        sim.run()
        assert sim.now == 0.0 and sim.processed_events == 0

    def test_zero_timeout_fires_same_instant(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0)
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_run_until_stops_clock_exactly(self):
        sim = Simulator()
        sim.spawn(iter_timeouts(sim, [10, 10, 10]))
        sim.run(until=15)
        assert sim.now == 15

    def test_run_until_past_is_error(self):
        sim = Simulator()
        sim.run(until=10)
        with pytest.raises(SimulationError):
            sim.run(until=5)

    def test_run_until_with_no_events_advances_clock(self):
        sim = Simulator()
        sim.run(until=42)
        assert sim.now == 42


def iter_timeouts(sim, delays):
    for delay in delays:
        yield sim.timeout(delay)


class TestEventOrdering:
    def test_fifo_among_equal_timestamps(self):
        sim = Simulator()
        order = []

        def maker(tag):
            yield sim.timeout(5)
            order.append(tag)

        for tag in range(10):
            sim.spawn(maker(tag))
        sim.run()
        assert order == list(range(10))

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=40))
    def test_events_process_in_time_order(self, delays):
        sim = Simulator()
        seen = []

        def waiter(delay):
            yield sim.timeout(delay)
            seen.append(sim.now)

        for delay in delays:
            sim.spawn(waiter(delay))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)


class TestEvents:
    def test_manual_succeed(self, sim):
        event = sim.event()

        def proc():
            value = yield event
            return value

        process = sim.spawn(proc())
        event.succeed(99)
        sim.run()
        assert process.value == 99

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_propagates_into_waiter(self, sim):
        event = sim.event()

        def proc():
            yield event

        process = sim.spawn(proc())
        event.fail(RuntimeError("boom"))
        sim.run()
        with pytest.raises(RuntimeError, match="boom"):
            _ = process.value

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_is_error(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_yield_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")
        sim.run()

        def proc():
            value = yield event
            return value

        assert sim.run_process(proc()) == "early"

    def test_yield_non_event_fails_process(self, sim):
        def proc():
            yield "not an event"

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError):
            _ = process.value

    def test_bare_number_yield_is_a_timeout(self, sim):
        """``yield 42`` sleeps 42us via the process's reusable tick --
        the allocation-free shorthand the CPU slice loop uses."""

        def proc():
            yield 42
            yield 0.5
            return sim.now

        assert sim.run_process(proc()) == 42.5

    def test_same_instant_entries_survive_between_runs(self, sim):
        """``run_process`` stops with work scheduled for this instant
        still on the calendar; the next ``run`` picks it up first."""
        order = []

        def background():
            yield 0
            order.append(("background", sim.now))

        def main():
            sim.spawn(background())
            done = sim.event().succeed()
            done.callbacks.append(lambda _event: order.append(("done", sim.now)))
            return "main"
            yield

        assert sim.run_process(main()) == "main"
        assert order == []
        sim.timeout(0).callbacks.append(lambda _event: order.append(("late", sim.now)))
        sim.run(until=3)
        # background's sleep was scheduled last of all, by its first step
        assert order == [("done", 0.0), ("late", 0.0), ("background", 0.0)]
        assert sim.now == 3

    def test_negative_bare_number_yield_fails(self, sim):
        def proc():
            yield -1.0

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError, match="negative"):
            _ = process.value


    def test_nan_bare_number_yield_fails(self, sim):
        def proc():
            yield 1.0
            yield float("nan")

        process = sim.spawn(proc())
        sim.run()
        with pytest.raises(SimulationError, match="negative timeout delay: nan"):
            _ = process.value
        assert sim.now == 1.0


class TestProcesses:
    def test_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(3)
            return 7

        def outer():
            value = yield from inner()
            return value * 2

        assert sim.run_process(outer()) == 14

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(10)
            return "child-result"

        def parent():
            result = yield sim.spawn(child())
            return result

        assert sim.run_process(parent()) == "child-result"

    def test_exception_propagates_to_parent(self, sim):
        def child():
            yield sim.timeout(1)
            raise ValueError("child died")

        def parent():
            yield sim.spawn(child())

        process = sim.spawn(parent())
        sim.run()
        with pytest.raises(ValueError, match="child died"):
            _ = process.value

    def test_failed_processes_recorded(self, sim):
        def doomed():
            yield sim.timeout(1)
            raise RuntimeError("unobserved")

        sim.spawn(doomed(), name="doomed")
        sim.run()
        assert any(name == "doomed" for name, _exc in sim.failed_processes)

    def test_interrupt_raises_in_process(self, sim):
        caught = []

        def victim():
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                caught.append((intr.cause, sim.now))

        process = sim.spawn(victim())
        def killer():
            yield sim.timeout(5)
            process.interrupt("stop now")

        sim.spawn(killer())
        sim.run()
        assert caught == [("stop now", 5.0)]
        assert not process.is_alive

    def test_interrupt_completed_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1)

        process = sim.spawn(quick())
        sim.run()
        process.interrupt("too late")  # must not raise
        sim.run()

    def test_interrupts_not_counted_as_failures(self, sim):
        def victim():
            yield sim.timeout(100)

        process = sim.spawn(victim(), name="victim")
        def killer():
            yield sim.timeout(1)
            process.interrupt()

        sim.spawn(killer())
        sim.run()
        assert not sim.failed_processes

    def test_interrupt_before_the_first_step_cancels_the_first_wait(self, sim):
        """The interrupt lands after the bootstrap, when the victim is
        already waiting on ``x``: that wait has to go, or ``x`` later
        resumes the victim inside whatever it is waiting on by then."""
        x, y = sim.event(), sim.event()
        seen = []

        def victim():
            try:
                yield x
            except Interrupt as intr:
                seen.append(("interrupted", intr.cause))
            seen.append(("y", (yield y)))

        process = sim.spawn(victim())
        process.interrupt("early")
        sim.run()
        x.succeed("from-x")
        sim.run()
        assert seen == [("interrupted", "early")] and process.is_alive
        y.succeed("from-y")
        sim.run()
        assert seen == [("interrupted", "early"), ("y", "from-y")]
        assert not sim.failed_processes

    def test_interrupt_before_the_first_step_cancels_a_processed_event_wait(self, sim):
        """Same, when the first wait is on an event that already fired
        and the resume is a hop of its own at this instant."""
        fired = sim.event().succeed("old")
        sim.run()
        y = sim.event()
        seen = []

        def victim():
            try:
                seen.append((yield fired))
            except Interrupt as intr:
                seen.append(intr.cause)
            seen.append((yield y))

        process = sim.spawn(victim())
        process.interrupt("early")
        sim.run()
        assert seen == ["early"]
        y.succeed("from-y")
        sim.run()
        assert seen == ["early", "from-y"] and process.value is None

    def test_two_interrupts_at_one_instant(self, sim):
        """The victim handles the first and waits again before the
        second lands; the second cancels *that* wait."""
        x, y, z = sim.event(), sim.event(), sim.event()
        seen = []

        def victim():
            for event in (x, y, z):
                try:
                    seen.append((yield event))
                except Interrupt as intr:
                    seen.append(intr.cause)

        process = sim.spawn(victim())
        sim.run()
        process.interrupt("first")
        process.interrupt("second")
        sim.run()
        assert seen == ["first", "second"]
        x.succeed("from-x")
        y.succeed("from-y")
        sim.run()
        assert seen == ["first", "second"] and process.is_alive
        z.succeed("from-z")
        sim.run()
        assert seen == ["first", "second", "from-z"]
        assert not process.is_alive and not sim.failed_processes

    @pytest.mark.parametrize("started", [True, False])
    def test_interrupted_sleep_leaves_an_inert_entry(self, sim, started):
        """A bare-number sleep cut short by an interrupt -- landing on a
        running victim, or on one whose first step just went to sleep --
        leaves its calendar entry behind: counted when its time comes,
        waking nobody, and the next sleep has its full length."""
        woke = []

        def victim():
            try:
                yield 10
            except Interrupt:
                woke.append(("interrupted", sim.now))
            yield 20
            woke.append(("slept", sim.now))
            yield 5
            woke.append(("slept", sim.now))

        process = sim.spawn(victim())
        if started:
            sim.run(until=5)
        process.interrupt()
        sim.run()
        at = 5.0 if started else 0.0
        assert woke == [("interrupted", at), ("slept", at + 20), ("slept", at + 25)]
        # bootstrap, interrupt, stale 10, 20, 5, completion
        assert sim.processed_events == 6

    def test_run_process_detects_deadlock(self, sim):
        never = sim.event()

        def stuck():
            yield never

        with pytest.raises(SimulationError, match="never completed"):
            sim.run_process(stuck())


class TestConditions:
    def test_all_of_collects_values(self, sim):
        def proc():
            events = [sim.timeout(d, value=d) for d in (3, 1, 2)]
            values = yield sim.all_of(events)
            return values

        assert sim.run_process(proc()) == [3, 1, 2]

    def test_all_of_waits_for_slowest(self, sim):
        def proc():
            yield sim.all_of([sim.timeout(1), sim.timeout(9)])
            return sim.now

        assert sim.run_process(proc()) == 9

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            value = yield sim.all_of([])
            return value

        assert sim.run_process(proc()) == []

    def test_any_of_returns_first(self, sim):
        def proc():
            fast = sim.timeout(1, value="fast")
            slow = sim.timeout(50, value="slow")
            event, value = yield sim.any_of([slow, fast])
            return value, sim.now

        value, when = sim.run_process(proc())
        assert value == "fast"
        assert when == 1

    def test_all_of_propagates_failure(self, sim):
        bad = sim.event()

        def proc():
            yield sim.all_of([sim.timeout(5), bad])

        process = sim.spawn(proc())
        bad.fail(RuntimeError("nope"))
        sim.run()
        with pytest.raises(RuntimeError):
            _ = process.value

"""Unit tests for resources: Resource, CPU, Container, Store."""

import pytest

from repro.sim.core import Interrupt, SimulationError
from repro.sim.resources import CPU, Container, Mutex, Resource, Store


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        a, b, c = resource.request(), resource.request(), resource.request()
        sim.run()
        assert a.triggered and b.triggered
        assert not c.triggered
        assert resource.in_use == 2
        assert resource.queue_len == 1

    def test_release_grants_next_waiter(self, sim):
        resource = Resource(sim, capacity=1)
        a = resource.request()
        b = resource.request()
        sim.run()
        resource.release(a)
        sim.run()
        assert b.triggered

    def test_release_unheld_is_error(self, sim):
        resource = Resource(sim, capacity=1)
        grant = sim.event()
        with pytest.raises(Exception):
            resource.release(grant)

    def test_priority_order(self, sim):
        resource = Resource(sim, capacity=1)
        hold = resource.request()
        low = resource.request(priority=5)
        high = resource.request(priority=-1)
        sim.run()
        resource.release(hold)
        sim.run()
        assert high.triggered
        assert not low.triggered

    def test_fifo_within_priority(self, sim):
        resource = Resource(sim, capacity=1)
        hold = resource.request()
        first = resource.request(priority=0)
        second = resource.request(priority=0)
        sim.run()
        resource.release(hold)
        sim.run()
        assert first.triggered and not second.triggered

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_using_helper(self, sim):
        resource = Resource(sim, capacity=1)

        def worker():
            yield from resource.using(10)
            return sim.now

        first = sim.spawn(worker())
        second = sim.spawn(worker())
        sim.run()
        assert first.value == 10
        assert second.value == 20

    def test_release_of_a_queued_request_withdraws_it(self, sim):
        resource = Resource(sim, capacity=1)
        hold = resource.request()
        waiters = [resource.request(priority) for priority in (1, 0, 1, 0, -1)]
        sim.run()
        resource.release(waiters[1])
        assert resource.queue_len == 4 and resource.in_use == 1
        assert not waiters[1].triggered
        # The others keep their order: priority first, FIFO within it.
        served = []
        for _ in range(4):
            resource.release(hold)
            sim.run()
            (hold,) = [w for w in waiters if w.triggered and w not in served]
            served.append(hold)
        assert served == [waiters[4], waiters[3], waiters[0], waiters[2]]
        resource.release(hold)
        assert resource.in_use == 0 and resource.queue_len == 0
        with pytest.raises(SimulationError, match="not held"):
            resource.release(waiters[1])  # neither held nor queued any more
        with pytest.raises(SimulationError, match="not held"):
            resource.release(hold)

    def test_mutex_is_capacity_one(self, sim):
        assert Mutex(sim).capacity == 1


class TestCPU:
    def test_serializes_beyond_cores(self, sim):
        cpu = CPU(sim, cores=2)
        done = []

        def task(tag):
            yield from cpu.run(10)
            done.append((tag, sim.now))

        for tag in range(4):
            sim.spawn(task(tag))
        sim.run()
        assert [when for _tag, when in done] == [10, 10, 20, 20]

    def test_busy_accounting_and_utilization(self, sim):
        cpu = CPU(sim, cores=2)
        sim.spawn(cpu.run(30))
        sim.spawn(cpu.run(10))
        sim.run()
        assert cpu.busy_us == 40
        # 40 busy over 30 elapsed x 2 cores
        assert cpu.utilization() == pytest.approx(40 / 60)

    def test_negative_cost_rejected(self, sim):
        cpu = CPU(sim, cores=1)
        with pytest.raises(ValueError):
            sim.run_process(cpu.run(-5))

    def test_zero_cost_completes(self, sim):
        cpu = CPU(sim, cores=1)
        sim.run_process(cpu.run(0))
        assert cpu.tasks_run == 1

    def test_sliced_run_total_time_unchanged_when_uncontended(self, sim):
        cpu = CPU(sim, cores=1)

        def task():
            yield from cpu.run(10, quantum_us=1)
            return sim.now

        assert sim.run_process(task()) == pytest.approx(10)

    def test_sliced_run_interleaves_fairly(self, sim):
        cpu = CPU(sim, cores=1)
        finish = {}

        def sliced(tag):
            yield from cpu.run(10, quantum_us=1)
            finish[tag] = sim.now

        sim.spawn(sliced("a"))
        sim.spawn(sliced("b"))
        sim.run()
        # Both finish around 20 (interleaved), not 10/20 (serial).
        assert finish["a"] == pytest.approx(19, abs=2)
        assert finish["b"] == pytest.approx(20, abs=2)

    def test_priority_preempts_queue_order(self, sim):
        cpu = CPU(sim, cores=1)
        order = []

        def task(tag, priority):
            yield from cpu.run(5, priority)
            order.append(tag)

        def scenario():
            yield from cpu.run(1)  # occupy the core briefly

        sim.spawn(scenario())
        sim.spawn(task("normal", 0))
        sim.spawn(task("kernel", -1))
        sim.run()
        assert order.index("kernel") < order.index("normal")


class TestAbandonedRequests:
    """A process interrupted while it is still queued must not be handed
    the slot later: nobody would ever give it back."""

    @staticmethod
    def _bodies(sim):
        resource = Resource(sim, capacity=1)
        cpu = CPU(sim, cores=1)
        return {"using": (resource.using, resource), "run": (cpu.run, cpu)}

    @pytest.mark.parametrize("body", ["using", "run"])
    def test_interrupted_while_queued(self, sim, body):
        work, pool = self._bodies(sim)[body]
        finished = {}

        def task(tag, cost):
            try:
                yield from work(cost)
            except Interrupt:
                tag += "-interrupted"
            finished[tag] = sim.now

        def late(tag, at, cost):
            yield at
            yield from task(tag, cost)

        sim.spawn(task("holder", 10))
        waiter = sim.spawn(task("waiter", 10))
        sim.spawn(late("third", 20, 10))
        sim.run(until=5)
        assert pool.queue_len == 1
        waiter.interrupt()
        sim.run(until=100)
        assert finished == {"waiter-interrupted": 5, "holder": 10, "third": 30}
        assert pool.in_use == 0 and pool.queue_len == 0

    @pytest.mark.parametrize("body", ["using", "run"])
    def test_interrupted_between_grant_and_resume(self, sim, body):
        """The slot is already the waiter's when the interrupt is called
        (the grant fired, its resume is still on the calendar): it goes
        back through the same ``finally``."""
        work, pool = self._bodies(sim)[body]
        finished = {}

        def task(tag, cost):
            try:
                yield from work(cost)
            except Interrupt:
                tag += "-interrupted"
            finished[tag] = sim.now

        def holder():
            yield from task("holder", 10)
            waiter.interrupt()  # same instant as the release above

        sim.spawn(holder())
        waiter = sim.spawn(task("waiter", 10))
        sim.spawn(task("third", 10))
        sim.run()
        assert finished == {"holder": 10, "waiter-interrupted": 10, "third": 20}
        assert pool.in_use == 0


class TestContainer:
    def test_put_then_get(self, sim):
        container = Container(sim, capacity=100, init=0)
        container.put(30)
        got = container.get(20)
        sim.run()
        assert got.triggered
        assert container.level == 10

    def test_get_blocks_until_level(self, sim):
        container = Container(sim, capacity=100)
        got = container.get(50)
        sim.run()
        assert not got.triggered
        container.put(50)
        sim.run()
        assert got.triggered

    def test_put_blocks_at_capacity(self, sim):
        container = Container(sim, capacity=10, init=10)
        put = container.put(5)
        sim.run()
        assert not put.triggered
        container.get(5)
        sim.run()
        assert put.triggered

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Container(sim, capacity=0)
        with pytest.raises(ValueError):
            Container(sim, capacity=10, init=20)


class TestStore:
    def test_fifo_order(self, sim):
        store = Store(sim)
        for item in ("a", "b", "c"):
            store.put(item)
        values = []
        for _ in range(3):
            got = store.get()
            sim.run()
            values.append(got.value)
        assert values == ["a", "b", "c"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = store.get()
        sim.run()
        assert not got.triggered
        store.put("x")
        sim.run()
        assert got.value == "x"

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        store.put("first")
        second = store.put("second")
        sim.run()
        assert not second.triggered
        store.get()
        sim.run()
        assert second.triggered

    def test_len(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        sim.run()
        assert len(store) == 2

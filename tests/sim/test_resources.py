"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def worker(sim, res, tag):
        req = res.request()
        yield req
        grants.append((tag, sim.now))
        yield sim.timeout(10.0)
        res.release(req)

    for tag in range(3):
        sim.process(worker(sim, res, tag))
    sim.run()
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0)]


def test_resource_fifo_queue():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, tag, start):
        yield sim.timeout(start)
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(5.0)
        res.release(req)

    sim.process(worker(sim, res, "a", 0.0))
    sim.process(worker(sim, res, "b", 1.0))
    sim.process(worker(sim, res, "c", 2.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_counters():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim, res):
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    def sampler(sim, res, samples):
        yield sim.timeout(5.0)
        samples.append((res.in_use, res.queue_length))

    samples = []
    sim.process(holder(sim, res))
    sim.process(holder(sim, res))
    sim.process(sampler(sim, res, samples))
    sim.run()
    assert samples == [(1, 1)]


def test_release_waiting_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    assert not second.granted
    res.release(second)  # cancel while queued
    res.release(first)
    assert res.in_use == 0
    assert res.queue_length == 0


def test_release_unknown_request_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    stray = res.request()
    res.release(stray)
    with pytest.raises(SimulationError):
        res.release(stray)


def test_zero_capacity_rejected():
    with pytest.raises(SimulationError):
        Resource(Simulator(), capacity=0)


# ------------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    store.put("x")
    sim.process(consumer(sim, store))
    sim.run()
    assert got == [(0.0, "x")]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((sim.now, item))

    def producer(sim, store):
        yield sim.timeout(6.0)
        store.put("late")

    sim.process(consumer(sim, store))
    sim.process(producer(sim, store))
    sim.run()
    assert got == [(6.0, "late")]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    for item in ("a", "b", "c"):
        store.put(item)
    got = []

    def consumer(sim, store):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(consumer(sim, store))
    sim.run()
    assert got == ["a", "b", "c"]


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store, tag):
        item = yield store.get()
        got.append((tag, item))

    sim.process(consumer(sim, store, 1))
    sim.process(consumer(sim, store, 2))

    def producer(sim, store):
        yield sim.timeout(1.0)
        store.put("first")
        store.put("second")

    sim.process(producer(sim, store))
    sim.run()
    assert got == [(1, "first"), (2, "second")]


def test_bounded_store_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer(sim, store):
        yield store.put("a")
        timeline.append(("a-stored", sim.now))
        yield store.put("b")
        timeline.append(("b-stored", sim.now))

    def consumer(sim, store):
        yield sim.timeout(5.0)
        item = yield store.get()
        timeline.append(("got-" + item, sim.now))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert timeline == [("a-stored", 0.0), ("got-a", 5.0), ("b-stored", 5.0)]


def test_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put(7)
    ok, item = store.try_get()
    assert ok and item == 7


def test_store_len_and_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.items == (1, 2)

"""Kernel edge cases around interrupts, failures and cleanup."""

import pytest

from repro.sim import (AnyOf, Interrupt, Resource, SimulationError,
                       Simulator, Store)


def test_interrupt_releases_resource_via_finally():
    """The pattern every server uses: CPU released even when the
    holding process is interrupted mid-service."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    log = []

    def holder(sim, resource):
        request = resource.request()
        yield request
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            log.append("interrupted")
            raise
        finally:
            resource.release(request)

    def late_user(sim, resource):
        yield sim.timeout(10.0)
        request = resource.request()
        yield request
        log.append(("acquired", sim.now))
        resource.release(request)

    victim = sim.process(holder(sim, resource))
    sim.process(late_user(sim, resource))

    def killer(sim, victim):
        yield sim.timeout(5.0)
        victim.interrupt()

    sim.process(killer(sim, victim))
    with pytest.raises(Interrupt):
        sim.run()
    sim.run()
    assert ("acquired", 10.0) in log
    assert resource.in_use == 0


def test_interrupt_handled_gracefully_continues():
    sim = Simulator()
    log = []

    def worker(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append(intr.cause)
        yield sim.timeout(1.0)
        log.append(sim.now)

    victim = sim.process(worker(sim))

    def killer(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake")

    sim.process(killer(sim, victim))
    sim.run()
    assert log == ["wake", 3.0]


def test_any_of_failing_child_propagates():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("child failed")

    def waiter(sim):
        child = sim.process(bad(sim))
        slow = sim.timeout(50.0)
        try:
            yield AnyOf(sim, [child, slow])
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    sim.run()
    assert caught == ["child failed"]


def test_waiting_on_already_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("early"))
    ev.defuse()
    sim.run()
    caught = []

    def late_waiter(sim, ev):
        try:
            yield ev
        except RuntimeError:
            caught.append(True)

    sim.process(late_waiter(sim, ev))
    sim.run()
    assert caught == [True]


def test_step_on_empty_heap_raises_indexerror():
    with pytest.raises(IndexError):
        Simulator().step()


def test_store_putter_chain_drains_in_order():
    sim = Simulator()
    store = Store(sim, capacity=1)
    stored = []

    def producer(sim, store, tag):
        yield store.put(tag)
        stored.append((tag, sim.now))

    for tag in ("a", "b", "c"):
        sim.process(producer(sim, store, tag))

    def consumer(sim, store):
        for _ in range(3):
            yield sim.timeout(1.0)
            yield store.get()

    sim.process(consumer(sim, store))
    sim.run()
    assert [tag for tag, _t in stored] == ["a", "b", "c"]


def test_interrupt_process_waiting_on_store_get():
    """stop_replication interrupts the SQL thread parked on the relay
    log; a later put must not be swallowed by the dead getter."""
    sim = Simulator()
    store = Store(sim)
    got = []

    def sleeper(sim, store):
        try:
            yield store.get()
        except Interrupt:
            return

    def live_consumer(sim, store):
        value = yield store.get()
        got.append(value)

    victim = sim.process(sleeper(sim, store))

    def script(sim):
        yield sim.timeout(1.0)
        victim.interrupt()
        yield sim.timeout(1.0)
        sim.process(live_consumer(sim, store))
        yield sim.timeout(1.0)
        store.put("payload")

    sim.process(script(sim))
    sim.run()
    # Documented behaviour: the interrupted getter still occupies its
    # queue slot, so the first put is consumed by it and lost to live
    # consumers.  (Failover therefore swaps in a fresh Store rather
    # than reusing one with a dead getter.)
    assert got == []
    ok, value = store.try_get()
    assert not ok


def test_condition_value_collects_only_fired_children():
    sim = Simulator()
    results = []

    def waiter(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(5.0, value="slow")
        outcome = yield AnyOf(sim, [fast, slow])
        results.append(sorted(outcome.values()))

    sim.process(waiter(sim))
    sim.run()
    assert results == [["fast"]]


def test_process_name_defaults():
    sim = Simulator()

    def some_proc(sim):
        yield sim.timeout(1.0)

    named = sim.process(some_proc(sim), name="custom")
    default = sim.process(some_proc(sim))
    assert named.name == "custom"
    assert default.name == "some_proc"
    sim.run()


# ------------------------------------------------- double triggering
def test_double_succeed_raises_with_clear_message():
    sim = Simulator()
    event = sim.event()
    event.succeed("first")
    with pytest.raises(SimulationError) as excinfo:
        event.succeed("second")
    message = str(excinfo.value)
    assert "succeed()" in message
    assert "exactly once" in message
    assert "succeeded" in message  # the event's state is named


def test_fail_after_succeed_raises_with_clear_message():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError, match="fail\\(\\) on"):
        event.fail(RuntimeError("boom"))


def test_succeed_after_fail_raises_and_names_failure():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("boom")).defuse()
    with pytest.raises(SimulationError) as excinfo:
        event.succeed(2)
    assert "failed" in str(excinfo.value)


def test_double_fail_raises():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("first")).defuse()
    with pytest.raises(SimulationError):
        event.fail(ValueError("second"))
    sim.run()  # the defused failure never re-raises


def test_double_trigger_leaves_event_state_intact():
    sim = Simulator()
    event = sim.event()
    event.succeed("kept")
    with pytest.raises(SimulationError):
        event.succeed("lost")
    sim.run()
    assert event.ok
    assert event.value == "kept"


def test_triggering_fired_timeout_raises():
    sim = Simulator()
    timeout = sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        timeout.succeed("late")


def test_event_and_process_reprs_describe_state():
    sim = Simulator()
    event = sim.event()
    assert repr(event) == "<Event pending>"
    event.succeed()
    assert repr(event) == "<Event succeeded>"

    def worker(sim):
        yield sim.timeout(1.0)

    process = sim.process(worker(sim), name="worker")
    assert repr(process) == "<Process 'worker' alive>"
    sim.run()
    assert repr(process) == "<Process 'worker' finished>"


def test_nan_delay_and_nan_until_are_rejected():
    """NaN compares False with everything: a ``delay < 0`` guard let it
    through, the clock became NaN and then "advanced" past it."""
    nan = float("nan")
    sim = Simulator()
    fired = []

    def sleeper(sim, delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in (5.0, nan, 1.0, 3.0):
        sim.process(sleeper(sim, delay))
    with pytest.raises(SimulationError, match="nan"):
        sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=nan)
    sim.run()
    assert fired == [1.0, 3.0, 5.0]
    assert sim.now == 5.0


class _Tally:
    """A stand-in for the kernel's sequence counter that counts the
    entries it numbers: one per scheduled event."""

    def __init__(self):
        self.issued = 0

    def __next__(self):
        self.issued += 1
        return self.issued


def test_every_executed_event_passes_through_step(monkeypatch):
    """The artifact benchmark counts a pass's kernel events by replacing
    ``Simulator.step`` on the class; an event run by any other path
    would be missing from ``events_per_pass``."""
    steps = 0
    original = Simulator.__dict__["step"]

    def counting_step(self):
        nonlocal steps
        steps += 1
        return original(self)

    monkeypatch.setattr(Simulator, "step", counting_step)
    sim = Simulator()
    sim._counter = tally = _Tally()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
        except Interrupt as interrupt:
            log.append((interrupt.cause, sim.now))
        yield sim.timeout(0.0)

    def poker(sim, victim):
        yield sim.timeout(1.0)
        posted = sim.event()
        posted.succeed("posted")
        log.append((yield posted))
        first = yield AnyOf(sim, [sim.timeout(2.0, "fast"),
                                  sim.timeout(3.0, "slow")])
        log.append(sorted(first.values()))
        victim.interrupt("stop")
        yield sim.timeout(5.0)

    victim = sim.process(sleeper(sim))
    sim.process(poker(sim, victim))
    sim.run(until=2.5)
    pending = len(sim._heap) + len(sim._immediate)
    assert steps > 0 and pending > 0
    assert steps == tally.issued - pending
    sim.run()
    assert log == ["posted", ["fast"], ("stop", 3.0)]
    assert steps == tally.issued

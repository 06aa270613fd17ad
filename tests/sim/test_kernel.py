"""Unit tests for the simulation kernel."""

import pytest

from repro.sim import AnyOf, Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(5.0)
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert log == [5.0]
    assert sim.now == 5.0


def test_timeout_delivers_value():
    sim = Simulator()
    seen = []

    def proc(sim):
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.process(proc(sim))
    sim.run()
    assert seen == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.0)
        return 42

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 42
    assert p.ok


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(sim, 3.0, "c"))
    sim.process(proc(sim, 1.0, "a"))
    sim.process(proc(sim, 2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list(range(10))


def test_run_until_stops_clock_exactly():
    sim = Simulator()

    def proc(sim):
        while True:
            yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=25.0)
    assert sim.now == 25.0


def test_run_until_past_last_event_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_in_the_past_rejected():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_process_waits_on_another_process():
    sim = Simulator()
    log = []

    def child(sim):
        yield sim.timeout(4.0)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        log.append((sim.now, result))

    sim.process(parent(sim))
    sim.run()
    assert log == [(4.0, "child-result")]


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        value = yield ev
        got.append((sim.now, value))

    def firer(sim):
        yield sim.timeout(7.0)
        ev.succeed("fired")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert got == [(7.0, "fired")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_surfaces():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()


def test_process_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("inner")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except KeyError:
            caught.append(True)

    sim.process(parent(sim))
    sim.run()
    assert caught == [True]


def test_yield_non_event_is_error():
    sim = Simulator()

    def bad(sim):
        yield 123

    p = sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()
    assert p.triggered and not p._ok


def test_any_of_fires_on_first():
    sim = Simulator()
    log = []

    def proc(sim):
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(9.0, value="slow")
        result = yield fast | slow
        log.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert log == [(1.0, ["fast"])]
    assert sim.now == 9.0  # the slow timeout still drains


def test_any_of_with_already_fired_event():
    sim = Simulator()
    log = []

    def proc(sim):
        yield sim.timeout(2.0)
        done = sim.event()
        done.succeed("instant")
        result = yield AnyOf(sim, [done, sim.timeout(50.0)])
        log.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert log == [2.0]


def test_interrupt_waiting_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(3.0)
        victim.interrupt(cause="wake-up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run(until=10.0)
    assert log == [(3.0, "wake-up")]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_is_alive_lifecycle():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_peek_reports_next_event_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(8.0)

    sim.process(proc(sim))
    sim.step()  # consume process-init event
    assert sim.peek() == 8.0
    sim.run()
    assert sim.peek() == float("inf")


def test_value_before_trigger_is_error():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_nested_process_chain_times():
    sim = Simulator()
    trace = []

    def level(sim, depth):
        if depth > 0:
            yield sim.process(level(sim, depth - 1))
        yield sim.timeout(1.0)
        trace.append((depth, sim.now))

    sim.process(level(sim, 3))
    sim.run()
    assert trace == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)]

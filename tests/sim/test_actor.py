"""The run-actor lifecycle (``repro.sim.Actor``): a named process that
starts once, stops by one interrupt, and ticks on a checked period —
a tick may yield, and may end the actor."""

import math

import pytest

from repro.sim import Actor, Resource, Simulator


@pytest.mark.parametrize("period", [0, 0.0, -1.0, math.nan, math.inf])
def test_period_must_be_finite_and_positive(period):
    with pytest.raises(ValueError, match="period"):
        Actor("bad", lambda: None, period)


def test_starting_twice_raises():
    sim = Simulator()
    actor = Actor("twice", lambda: None, 1.0)
    process = actor.start(sim)
    assert process.name == "twice" and actor.process is process
    with pytest.raises(RuntimeError, match="already started"):
        actor.start(sim)
    actor.stop()
    with pytest.raises(RuntimeError, match="already started"):
        actor.start(sim)


def test_stop_before_start_and_after_the_end_does_nothing():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    actor = Actor("once", body)
    actor.stop()                      # never started: no process, no event
    assert actor.process is None and sim.peek() == math.inf
    actor.start(sim)
    sim.run()
    assert actor.process.ok and sim.now == 1.0
    actor.stop()                      # already ended: still nothing
    assert sim.peek() == math.inf


def test_ticks_every_period_and_stop_is_one_interrupt_event():
    sim = Simulator()
    times = []
    actor = Actor("periodic", lambda: times.append(sim.now), 2.0)
    actor.start(sim)
    sim.run(until=7.0)
    assert times == [2.0, 4.0, 6.0]
    actor.stop()
    sim.step()                        # the interrupt: the actor ends
    assert actor.process.ok and actor.process.value is None
    assert sim.now == 7.0 and times == [2.0, 4.0, 6.0]


def test_stop_while_a_tick_waits_for_a_core_releases_the_claim():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    hog = cpu.request()               # the only core, taken

    def claim():
        request = cpu.request()
        try:
            yield request
            yield sim.timeout(1.0)
        finally:
            cpu.release(request)

    actor = Actor("queued", claim, 1.0)
    actor.start(sim)
    sim.run(until=1.5)
    assert cpu.queue_length == 1      # the tick waits behind the hog
    actor.stop()
    sim.run(until=2.0)
    assert not actor.process.is_alive
    assert cpu.queue_length == 0 and cpu.in_use == 1
    cpu.release(hog)
    assert cpu.in_use == 0


def test_a_tick_may_yield():
    sim = Simulator()
    spans = []

    def tick():
        began = sim.now
        yield sim.timeout(0.5)
        spans.append((began, sim.now))

    actor = Actor("yielding", tick, 1.0)
    actor.start(sim)
    sim.run(until=4.0)
    # The period is waited after each tick ends.
    assert spans == [(1.0, 1.5), (2.5, 3.0)]


@pytest.mark.parametrize("yields", [False, True])
def test_a_tick_can_end_the_actor(yields):
    sim = Simulator()
    times = []

    def plain():
        times.append(sim.now)
        if len(times) == 3:
            return Actor.STOP
        return None

    def yielding():
        yield sim.timeout(0.25)
        return plain()

    actor = Actor("ending", yielding if yields else plain, 1.0)
    actor.start(sim)
    sim.run(until=10.0)
    assert not actor.process.is_alive and actor.process.ok
    if yields:
        assert times == [1.25, 2.5, 3.75]
    else:
        assert times == [1.0, 2.0, 3.0]
    actor.stop()                      # ended by its tick: a no-op
    assert sim.peek() == math.inf

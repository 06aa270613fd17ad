"""Run actors: the one lifecycle of the processes that drive or watch
a run — the heartbeat plug-in, the cluster monitor, the failover
controller, the replica-health policy, the SLO engine, the watchboard
and the chaos injector.

An :class:`Actor` starts a named process at most once; ``stop()``
interrupts it if alive (a no-op otherwise) and the interrupt ends it
quietly.  A periodic actor waits its period, then runs one *tick*: a
plain call, or a generator the actor delegates to (a tick may yield).
A tick returning :attr:`Actor.STOP` ends the actor.  Without a period
the callable is the whole body, a generator function run once.  No
kernel event is added: one timeout per period, one interrupt on stop.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable, Optional

# A module, not its names: the live plane builds its actors on this
# class and is imported while the kernel is still loading.
from . import kernel

__all__ = ["Actor"]

_INF = float("inf")


class Actor:
    """One named process with a start-once, stop-by-interrupt life."""

    __slots__ = ("name", "tick", "period", "process")

    #: Returned by a tick to end its actor.
    STOP = object()

    def __init__(self, name: str, tick: Callable,
                 period: Optional[float] = None):
        if period is not None and not 0 < period < _INF:   # NaN too
            raise ValueError(f"{name}: period must be a finite number "
                             f"> 0, got {period!r}")
        self.name = name
        self.tick = tick
        self.period = period
        self.process: Optional[kernel.Process] = None

    def start(self, sim: kernel.Simulator) -> kernel.Process:
        """Start the actor's process; an actor starts at most once."""
        if self.process is not None:
            raise RuntimeError(f"{self.name} already started")
        self.process = sim.process(self._run(sim), name=self.name)
        return self.process

    def stop(self) -> None:
        """Interrupt the process if it is alive; a no-op otherwise."""
        if self.process is not None and self.process.is_alive:
            self.process.interrupt("stopped")

    def _run(self, sim: kernel.Simulator):
        tick, period = self.tick, self.period
        try:
            if period is None:
                yield from tick()
                return
            while True:
                yield sim.timeout(period)
                outcome = tick()
                if type(outcome) is GeneratorType:
                    outcome = yield from outcome
                if outcome is Actor.STOP:
                    return
        except kernel.Interrupt:
            return

"""Discrete-event simulation substrate.

Public surface: the :class:`Simulator` kernel, process/event primitives,
the :class:`Actor` lifecycle of a run's periodic jobs, queueing
resources and named deterministic RNG streams.
"""

from .kernel import (AnyOf, Event, Interrupt, Process, SimulationError,
                     Simulator, Timeout)
from .actor import Actor
from .resources import Request, Resource, Store
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Actor",
    "AnyOf",
    "SimulationError",
    "Resource",
    "Request",
    "Store",
    "RandomStreams",
]

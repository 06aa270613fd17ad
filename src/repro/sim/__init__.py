"""Discrete-event simulation substrate.

Public surface: the :class:`Simulator` kernel, process/event primitives,
queueing resources and named deterministic RNG streams.
"""

from .kernel import (AllOf, AnyOf, Event, Interrupt, Process, SimulationError,
                     Simulator, Timeout)
from .resources import Request, Resource, Store
from .rng import RandomStreams

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "Resource",
    "Request",
    "Store",
    "RandomStreams",
]

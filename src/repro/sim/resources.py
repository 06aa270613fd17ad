"""Queueing primitives built on the simulation kernel.

Two primitives cover every queueing structure in the reproduction:

* :class:`Resource` — a counted resource with a FIFO wait queue (CPU
  cores, connection-pool slots).
* :class:`Store` — an unbounded-or-bounded FIFO queue of items (request
  queues, relay logs, network mailboxes).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from .kernel import Event, Simulator, SimulationError

__all__ = ["Request", "Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource`.

    Yield the request to wait for the grant, then call
    :meth:`Resource.release` with it when done::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(req)
    """

    __slots__ = ("resource", "granted")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        self.granted = False


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO queue."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a slot previously granted to ``req``.

        Releasing an ungranted request cancels it instead.
        """
        if not req.granted:
            try:
                self._waiting.remove(req)
            except ValueError:
                raise SimulationError("request not held and not waiting")
            return
        req.granted = False
        self._in_use -= 1
        while self._waiting and self._in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def _grant(self, req: Request) -> None:
        self._in_use += 1
        req.granted = True
        req.succeed(req)


class Store:
    """A FIFO queue of items with blocking ``get`` and optional capacity."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; the returned event fires once it is stored."""
        done = Event(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            done.succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            done.succeed(item)
        else:
            self._putters.append((done, item))
        return done

    def get(self) -> Event:
        """Dequeue the oldest item; blocks (as an event) when empty."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and (self.capacity is None
                              or len(self._items) < self.capacity):
            done, item = self._putters.popleft()
            if self._getters:
                self._getters.popleft().succeed(item)
            else:
                self._items.append(item)
            done.succeed(item)

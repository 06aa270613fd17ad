"""Sim-time tracing: spans, per-process context propagation, and the
zero-cost disabled path.

A :class:`Span` is one named interval of **simulated** time — there is
deliberately no wall-clock anywhere in this module, so two runs with
the same seed produce byte-identical traces.  Spans form trees: a span
opened while another span of the *same simulation process* is open
becomes its child (context propagation keyed on
``Simulator.active_process``, which is how a single-threaded
discrete-event kernel spells thread-local storage).

Two opening APIs with different proof obligations:

* :meth:`Tracer.span` — a *scoped* span: the opener must close it on
  every path, either as a context manager (preferred) or via an
  explicit ``end()``.  Every scoped span in ``src/`` uses the ``with``
  form; an ``end()`` that arrives after :meth:`Tracer.close` is
  counted in ``dropped``, which ``repro analyze`` refuses.
* :meth:`Tracer.open_span` — a *flow* span whose ownership transfers
  to whoever observes the matching completion (e.g. a replication
  ship span opened by the master's dump thread and ended by the
  slave's IO thread).

Disabled tracing must cost nothing measurable: :data:`NULL_TRACER`
(``enabled`` is False) returns one shared no-op span, so
instrumentation sites are either a truthiness guard
(``if tracer.enabled:``) or a ``with`` over the null span.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]

#: Sentinel parent id for root spans.
ROOT = 0


class Span:
    """One named interval of simulated time, with attributes."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "category",
                 "track", "start", "end_time", "attributes", "instant",
                 "_context_key")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: int,
                 name: str, category: str, track: str, start: float,
                 attributes: dict, context_key: Any):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.start = start
        self.end_time: Optional[float] = None
        self.attributes = attributes
        self.instant = False
        self._context_key = context_key

    @property
    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError(f"span {self.name!r} has not ended")
        return self.end_time - self.start

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attributes[key] = value
        return self

    def end(self) -> None:
        """Close the span at the current simulated time (idempotent)."""
        self.tracer._finish(self)

    # -- context-manager protocol -----------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self.attributes:
            self.attributes["error"] = exc_type.__name__
        self.end()
        return False

    def __repr__(self) -> str:
        state = "open" if self.end_time is None \
            else f"[{self.start:.6f}, {self.end_time:.6f}]"
        return f"<Span #{self.span_id} {self.name!r} {state}>"


#: Context key used for spans opened outside any simulation process
#: (setup code, the experiment runner, event callbacks).
_MAIN = None

_NOT_PUSHED = object()


class Tracer:
    """Records spans against one simulator's clock and process table."""

    enabled = True

    def __init__(self, sim):
        self.sim = sim
        #: Finished spans in end order; exporters sort by (start, id).
        self.spans: list[Span] = []
        #: Spans that ended after :meth:`close` (e.g. a generator's
        #: ``with`` unwinding at teardown) — counted, not recorded,
        #: so the recorded trace is a pure function of the seed.
        self.dropped = 0
        self._ids = itertools.count(1)
        #: Open-span stack per simulation process (the kernel is
        #: single-threaded, so the active process *is* the context).
        self._stacks: dict[Any, list[Span]] = {}
        self._closed = False

    # -- opening -----------------------------------------------------------
    def span(self, name: str, category: str = "app",
             track: Optional[str] = None, **attributes) -> Span:
        """Open a scoped span: close it on every path (``with``)."""
        return self._start(name, category, track, attributes, push=True)

    def open_span(self, name: str, category: str = "app",
                  track: Optional[str] = None, **attributes) -> Span:
        """Open a flow span whose ``end()`` happens elsewhere."""
        return self._start(name, category, track, attributes, push=False)

    def instant(self, name: str, category: str = "app",
                track: Optional[str] = None, **attributes) -> Span:
        """Record a zero-duration marker at the current sim time."""
        span = self._start(name, category, track, attributes, push=False)
        span.instant = True
        self._finish(span)
        return span

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Freeze the trace: late ``end()`` calls (interpreter teardown
        of suspended generators) are dropped instead of recorded."""
        self._closed = True

    def current_span(self) -> Optional[Span]:
        """The innermost open scoped span of the active process."""
        stack = self._stacks.get(self._context_key())
        return stack[-1] if stack else None

    @property
    def open_scoped_spans(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())

    # -- internals ----------------------------------------------------------
    def _context_key(self) -> Any:
        return self.sim.active_process or _MAIN

    def _track_name(self) -> str:
        process = self.sim.active_process
        return process.name if process is not None else "<main>"

    def _start(self, name: str, category: str, track: Optional[str],
               attributes: dict, push: bool) -> Span:
        key = self._context_key() if push else _NOT_PUSHED
        context = self._stacks.get(self._context_key())
        parent = context[-1].span_id if context else ROOT
        span = Span(self, next(self._ids), parent, name, category,
                    track if track is not None else self._track_name(),
                    self.sim.now, attributes, key)
        if push:
            if context is None:
                self._stacks[key] = [span]
            else:
                context.append(span)
        return span

    def _finish(self, span: Span) -> None:
        if span.end_time is not None:
            return
        span.end_time = self.sim.now
        key = span._context_key
        if key is not _NOT_PUSHED:
            stack = self._stacks.get(key)
            if stack is not None:
                if stack and stack[-1] is span:
                    stack.pop()
                else:  # out-of-order end; still remove the entry
                    try:
                        stack.remove(span)
                    except ValueError:
                        pass
                if not stack:
                    del self._stacks[key]
        if self._closed:
            self.dropped += 1
            return
        self.spans.append(span)


class _NullSpan:
    """The shared do-nothing span the null tracer hands out."""

    __slots__ = ()

    def set_attribute(self, key, value):
        return self

    def end(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a cheap constant no-op."""

    enabled = False
    spans: tuple = ()
    dropped = 0

    def span(self, name, category="app", track=None, **attributes):
        return _NULL_SPAN

    def open_span(self, name, category="app", track=None, **attributes):
        return _NULL_SPAN

    def instant(self, name, category="app", track=None, **attributes):
        return _NULL_SPAN

    def current_span(self):
        return None

    def close(self):
        pass


#: Process-wide singleton; ``Simulator`` starts with this attached.
NULL_TRACER = NullTracer()

"""Streaming aggregation over live telemetry: an explicit operator DAG.

The post-hoc planes (``obs/analyze``, the waterfall, the bottleneck
verdict) re-scan recorded :class:`~repro.metrics.TimeSeries` after a
run ends.  The *live* plane cannot afford that: an SLO evaluated every
sim-second over a gauge with tens of thousands of samples would turn
each evaluation into a scan.  This module keeps every aggregate
**incremental**: a :class:`Node` wraps one operator whose state updates
in O(1)-ish work per published sample, and nodes form an explicit DAG
so derived streams (smoothed CPU, violation shares) compose from
primitive ones.

Everything is keyed on *simulated* time — the pipeline never reads a
wall clock, so two same-seed runs push byte-identical sample sequences
through byte-identical operator states.

Disabled path: :data:`NULL_LIVE` (``enabled`` is False) is the
process-wide null pipeline every :class:`~repro.sim.Simulator` starts
with, mirroring ``NULL_TRACER``/``NULL_METRICS`` — publish sites pay a
single truthiness guard when no SLO spec is attached.
"""

from __future__ import annotations

import math
from fnmatch import fnmatchcase
from typing import Callable, Optional

__all__ = [
    "Operator", "Latest", "Ewma", "WindowedMean", "Mapped",
    "Node", "LivePipeline", "NullLivePipeline", "NULL_LIVE",
]


class Operator:
    """Incremental aggregate: ``update`` per sample, ``read`` at any
    later sim time.  ``read`` may return None before the first sample
    (or when the window is empty)."""

    def update(self, t: float, value: float) -> None:
        raise NotImplementedError

    def read(self, now: float) -> Optional[float]:
        raise NotImplementedError


class Latest(Operator):
    """Identity: the most recent sample (gauges are step functions)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Optional[float] = None

    def update(self, t: float, value: float) -> None:
        self.value = value

    def read(self, now: float) -> Optional[float]:
        return self.value


class Ewma(Operator):
    """Exponentially weighted moving average with a sim-time constant.

    The decay is continuous-time (``alpha = 1 - exp(-dt / tau)``), so
    irregular sampling — a monitor that misses beats during a partition
    — still weights history by *elapsed sim time*, not sample count.
    """

    __slots__ = ("tau", "value", "_last_t")

    def __init__(self, tau: float):
        if tau <= 0:
            raise ValueError(f"ewma tau must be positive, got {tau}")
        self.tau = tau
        self.value: Optional[float] = None
        self._last_t: Optional[float] = None

    def update(self, t: float, value: float) -> None:
        if self.value is None:
            self.value = value
        else:
            dt = max(t - self._last_t, 0.0)
            alpha = 1.0 - math.exp(-dt / self.tau)
            self.value += alpha * (value - self.value)
        self._last_t = t

    def read(self, now: float) -> Optional[float]:
        return self.value


class WindowedMean(Operator):
    """Arithmetic mean of the samples in a trailing window (None when
    the window holds no samples) — the burn-rate rules' workhorse over
    violation-indicator streams.  Samples with ``t <= now - window``
    fall out."""

    __slots__ = ("window", "entries")

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.entries: list[tuple[float, float]] = []

    def _evict(self, now: float) -> None:
        cutoff = now - self.window
        entries = self.entries
        drop = 0
        for t, _value in entries:
            if t > cutoff:
                break
            drop += 1
        if drop:
            del entries[:drop]

    def update(self, t: float, value: float) -> None:
        self.entries.append((t, value))
        self._evict(t)

    def read(self, now: float) -> Optional[float]:
        self._evict(now)
        entries = self.entries
        if not entries:
            return None
        return math.fsum(v for _t, v in entries) / len(entries)


class Mapped(Operator):
    """Pointwise transform of the parent stream (e.g. a violation
    indicator: 1.0 when over target, else 0.0)."""

    __slots__ = ("fn", "value")

    def __init__(self, fn: Callable[[float], float]):
        self.fn = fn
        self.value: Optional[float] = None

    def update(self, t: float, value: float) -> None:
        self.value = self.fn(value)

    def read(self, now: float) -> Optional[float]:
        return self.value


class Node:
    """One stream in the DAG: an operator plus its downstream edges."""

    __slots__ = ("name", "op", "children", "last_time", "updates")

    def __init__(self, name: str, op: Operator):
        self.name = name
        self.op = op
        #: Downstream nodes, fed this node's reading on every update.
        self.children: list["Node"] = []
        self.last_time: Optional[float] = None
        self.updates = 0

    def receive(self, t: float, value: float) -> None:
        self.op.update(t, value)
        self.last_time = t
        self.updates += 1
        if self.children:
            out = self.op.read(t)
            if out is not None:
                for child in self.children:
                    child.receive(t, out)

    def read(self, now: float) -> Optional[float]:
        return self.op.read(now)

    def __repr__(self) -> str:
        return f"<Node {self.name!r} updates={self.updates}>"


class LivePipeline:
    """Named streams + derivation: the live telemetry bus.

    Sources appear on first publish (or are pre-declared); derived
    nodes are added with :meth:`derive`, which can only point *at an
    existing node* — the graph is acyclic by construction.
    """

    enabled = True

    def __init__(self, now_fn: Optional[Callable[[], float]] = None):
        self._now = now_fn if now_fn is not None else (lambda: 0.0)
        self._nodes: dict[str, Node] = {}
        #: Publishes routed through :meth:`publish` (taps + direct).
        self.published = 0

    # -- building ----------------------------------------------------------
    def source(self, name: str) -> Node:
        """The source node for ``name`` (created on first use)."""
        node = self._nodes.get(name)
        if node is None:
            node = Node(name, Latest())
            self._nodes[name] = node
        return node

    def _add(self, name: str, node: Node) -> Node:
        if name in self._nodes:
            raise ValueError(f"stream {name!r} already exists")
        self._nodes[name] = node
        return node

    def derive(self, name: str, op: Operator,
               parent: "str | Node") -> Node:
        """A new stream: ``op`` applied to ``parent``'s updates."""
        parent_node = self.source(parent) if isinstance(parent, str) \
            else parent
        node = self._add(name, Node(name, op))
        parent_node.children.append(node)
        return node

    # -- feeding -----------------------------------------------------------
    def publish(self, name: str, value: float,
                t: Optional[float] = None) -> None:
        """Push one sample into ``name``'s source node (created on
        first publish) and through its downstream operators."""
        self.published += 1
        self.source(name).receive(self._now() if t is None else t,
                                  float(value))

    def attach_metrics(self, registry) -> None:
        """Tap every instrument of ``registry`` (current and future):
        gauge sets, counter totals and histogram observations flow in
        as publishes under the metric's name."""
        registry.on_update(self._on_metric)

    def _on_metric(self, name: str, kind: str, value: float) -> None:
        self.publish(name, value)

    # -- reading -----------------------------------------------------------
    def get(self, name: str) -> Optional[Node]:
        return self._nodes.get(name)

    def read(self, name: str, now: float) -> Optional[float]:
        node = self._nodes.get(name)
        return node.read(now) if node is not None else None

    def last_update(self, name: str) -> Optional[float]:
        node = self._nodes.get(name)
        return node.last_time if node is not None else None

    def match(self, pattern: str) -> list[str]:
        """Stream names matching an ``fnmatch`` pattern, sorted."""
        if any(ch in pattern for ch in "*?["):
            return sorted(name for name in self._nodes
                          if fnmatchcase(name, pattern))
        return [pattern] if pattern in self._nodes else []

    def names(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes


class NullLivePipeline:
    """The disabled pipeline: publish sites pay one truthiness guard."""

    enabled = False
    published = 0

    def publish(self, name, value, t=None):
        pass

    def get(self, name):
        return None

    def read(self, name, now):
        return None

    def last_update(self, name):
        return None

    def match(self, pattern):
        return []

    def names(self):
        return []

    def __len__(self) -> int:
        return 0

    def __contains__(self, name) -> bool:
        return False


#: Process-wide singleton; ``Simulator`` starts with this attached.
NULL_LIVE = NullLivePipeline()

"""Streaming aggregation over live telemetry: an explicit operator DAG.

The post-hoc planes (``obs/analyze``, the waterfall, the bottleneck
verdict) re-scan recorded :class:`~repro.metrics.TimeSeries` after a
run ends.  The *live* plane cannot afford that: an SLO evaluated every
sim-second over a gauge with tens of thousands of samples would turn
each evaluation into a scan.  This module keeps every aggregate
**incremental**: a :class:`Node` wraps one operator whose state updates
in O(1)-ish work per published sample, and nodes form an explicit DAG
so derived streams (per-slave staleness p99, violation shares) compose
from primitive ones.

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
from typing import Callable, Optional, Sequence

__all__ = [
    "Operator", "Latest", "Ewma", "WindowedRate", "WindowedMean",
    "SlidingMax", "SlidingMin", "SlidingQuantile", "Mapped",
    "Node", "LivePipeline", "NullLivePipeline", "NULL_LIVE",
    "STALENESS_BUCKETS",
]

#: Staleness/latency-flavoured histogram edges, in seconds, for the
#: sliding-quantile operator (upper edges; one +inf bucket follows).
STALENESS_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
                     2.0, 5.0, 10.0, 30.0, 60.0)


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


class _WindowDeque:
    """Shared eviction for trailing-window operators: samples with
    ``t <= now - window`` fall out."""

    __slots__ = ("window", "entries")

    def __init__(self, window: float):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.entries: list[tuple[float, float]] = []

    def evict(self, now: float) -> None:
        cutoff = now - self.window
        entries = self.entries
        drop = 0
        for t, _value in entries:
            if t > cutoff:
                break
            drop += 1
        if drop:
            del entries[:drop]


class WindowedRate(Operator):
    """Updates per second over a trailing sim-time window.

    ``mode="count"`` rates the *number* of updates (event streams);
    ``mode="delta"`` rates the *increase* of a monotonic total
    (counter streams) — the publish delivers the cumulative value and
    the operator differences it.
    """

    __slots__ = ("_window", "mode", "_last_total")

    def __init__(self, window: float, mode: str = "count"):
        if mode not in ("count", "delta"):
            raise ValueError(f"mode must be 'count' or 'delta', "
                             f"got {mode!r}")
        self._window = _WindowDeque(window)
        self.mode = mode
        self._last_total: Optional[float] = None

    def update(self, t: float, value: float) -> None:
        if self.mode == "delta":
            previous = self._last_total
            self._last_total = value
            weight = value - previous if previous is not None else 0.0
        else:
            weight = 1.0
        self._window.entries.append((t, weight))
        self._window.evict(t)

    def read(self, now: float) -> Optional[float]:
        self._window.evict(now)
        total = math.fsum(w for _t, w in self._window.entries)
        return total / self._window.window


class WindowedMean(Operator):
    """Arithmetic mean of the samples in a trailing window (None when
    the window holds no samples) — the burn-rate rules' workhorse over
    violation-indicator streams."""

    __slots__ = ("_window",)

    def __init__(self, window: float):
        self._window = _WindowDeque(window)

    def update(self, t: float, value: float) -> None:
        self._window.entries.append((t, value))
        self._window.evict(t)

    def read(self, now: float) -> Optional[float]:
        self._window.evict(now)
        entries = self._window.entries
        if not entries:
            return None
        return math.fsum(v for _t, v in entries) / len(entries)


class _SlidingExtreme(Operator):
    """Monotonic-deque max/min over a trailing window."""

    __slots__ = ("_window", "_better")

    def __init__(self, window: float, better):
        self._window = _WindowDeque(window)
        self._better = better

    def update(self, t: float, value: float) -> None:
        entries = self._window.entries
        while entries and not self._better(entries[-1][1], value):
            entries.pop()
        entries.append((t, value))
        self._window.evict(t)

    def read(self, now: float) -> Optional[float]:
        self._window.evict(now)
        entries = self._window.entries
        return entries[0][1] if entries else None


class SlidingMax(_SlidingExtreme):
    """Maximum over a trailing sim-time window."""

    def __init__(self, window: float):
        super().__init__(window, lambda kept, new: kept > new)


class SlidingMin(_SlidingExtreme):
    """Minimum over a trailing sim-time window."""

    def __init__(self, window: float):
        super().__init__(window, lambda kept, new: kept < new)


class SlidingQuantile(Operator):
    """Sliding quantile via fixed-bucket histogram merge.

    Time is cut into ``slots`` sub-windows of ``window / slots``
    seconds; each keeps one fixed-edge histogram.  An update lands in
    its sub-window's histogram in O(log buckets); a read merges the
    live sub-windows and walks the cumulative counts.  The estimate is
    the smallest bucket upper edge covering the requested rank —
    deterministic, bounded memory, and conservative (never under the
    true quantile by more than one bucket's width).
    """

    __slots__ = ("q", "window", "edges", "slots", "_granularity",
                 "_ring", "_counts")

    def __init__(self, q: float, window: float,
                 edges: Sequence[float] = STALENESS_BUCKETS,
                 slots: int = 16):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if list(edges) != sorted(edges) or not edges:
            raise ValueError(f"edges must be non-empty and sorted, "
                             f"got {edges!r}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.q = q
        self.window = window
        self.edges = tuple(edges)
        self.slots = slots
        self._granularity = window / slots
        #: slot index -> counts per bucket (+1 overflow), ordered by
        #: insertion (slot indexes only grow: sim time is monotonic).
        self._ring: dict[int, list[int]] = {}

    def _slot(self, t: float) -> int:
        return int(t // self._granularity)

    def _evict(self, now: float) -> None:
        # A sub-window is live while any part of it can still hold
        # samples newer than ``now - window``.
        oldest_live = self._slot(now) - self.slots
        ring = self._ring
        for index in [index for index in ring if index <= oldest_live]:
            del ring[index]

    def update(self, t: float, value: float) -> None:
        counts = self._ring.get(self._slot(t))
        if counts is None:
            counts = [0] * (len(self.edges) + 1)
            self._ring[self._slot(t)] = counts
        lo, hi = 0, len(self.edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        counts[lo] += 1
        self._evict(t)

    def read(self, now: float) -> Optional[float]:
        self._evict(now)
        if not self._ring:
            return None
        merged = [0] * (len(self.edges) + 1)
        for index in sorted(self._ring):
            for bucket, count in enumerate(self._ring[index]):
                merged[bucket] += count
        total = sum(merged)
        if total == 0:
            return None
        rank = self.q * total
        running = 0
        for bucket, count in enumerate(merged):
            running += count
            if running >= rank:
                if bucket < len(self.edges):
                    return self.edges[bucket]
                return math.inf  # beyond the last edge
        return math.inf


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

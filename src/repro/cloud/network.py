"""Network latency model and message delivery.

The paper reduces placement to three latency classes, measured with
``ping`` from the master's zone (§IV-B.2): one-way (half round-trip)
times of **16 ms** within the same zone, **21 ms** across zones of one
region and **173 ms** across regions.  The model reproduces those
numbers as medians of a lognormal jitter distribution and exposes both
an event-style ``send`` (used by the replication pipeline) and a
synchronous ``ping`` probe (used by the RTT characterization bench).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ..sim import Event, RandomStreams, Simulator
from .regions import Placement

__all__ = ["LatencyModel", "Network", "PAPER_LATENCY"]


@dataclass(frozen=True)
class LatencyModel:
    """One-way latency parameters per placement relationship.

    ``*_ms`` values are medians of the one-way delay; ``jitter_sigma``
    is the lognormal shape parameter applied multiplicatively.  A small
    ``floor_ms`` guards against unrealistically tiny samples.
    """

    same_zone_ms: float = 16.0
    cross_zone_ms: float = 21.0
    cross_region_ms: float = 173.0
    loopback_ms: float = 0.05
    jitter_sigma: float = 0.08
    floor_ms: float = 0.01
    #: Optional per-region-pair overrides for cross-region medians,
    #: keyed on a frozenset of the two region names.
    region_pair_ms: dict = field(default_factory=dict)

    def median_one_way_ms(self, src: Placement, dst: Placement) -> float:
        """The jitter-free one-way latency between two placements."""
        if src == dst:
            return self.loopback_ms
        if src.same_zone(dst):
            return self.same_zone_ms
        if src.same_region(dst):
            return self.cross_zone_ms
        override = self.region_pair_ms.get(
            frozenset((src.region, dst.region)))
        return self.cross_region_ms if override is None else override


#: The latency model calibrated to the paper's ping measurements.
PAPER_LATENCY = LatencyModel()


class Network:
    """Delivers messages between placements with sampled latency."""

    def __init__(self, sim: Simulator, streams: RandomStreams,
                 model: LatencyModel = PAPER_LATENCY):
        self.sim = sim
        self.streams = streams
        self.model = model
        self.messages_sent = 0
        self.bytes_sent = 0
        self._down_region_pairs: set[frozenset] = set()
        self._heal_waiters: dict[frozenset, list[Event]] = {}
        #: Transient latency surges: extra one-way milliseconds added to
        #: every sample, keyed on a frozenset of the two region names
        #: (or :data:`Network.EVERYWHERE` for a global surge).
        self._latency_surges: dict[frozenset, float] = {}
        #: ``model.median_one_way_ms`` by the fields it reads, so that
        #: no message compares or hashes a placement.
        self._medians: dict[tuple[str, str, str, str], float] = {}

    #: Surge key applying to every non-loopback path.
    EVERYWHERE: frozenset = frozenset(("*",))

    # -- latency surges -------------------------------------------------------
    def add_latency(self, extra_ms: float,
                    region_a: Optional[str] = None,
                    region_b: Optional[str] = None) -> None:
        """Inflate one-way latency by ``extra_ms`` until cleared.

        With a region pair, only that pair degrades; without one, every
        non-loopback path does (a congestion event rather than a bad
        link).  Surges stack additively with the model's medians; the
        lognormal jitter applies on top, so jitter grows with them.
        """
        if extra_ms < 0:
            raise ValueError(f"extra_ms must be >= 0, got {extra_ms}")
        key = self.EVERYWHERE if region_a is None \
            else frozenset((region_a, region_b or region_a))
        self._latency_surges[key] = \
            self._latency_surges.get(key, 0.0) + extra_ms

    def clear_latency(self, region_a: Optional[str] = None,
                      region_b: Optional[str] = None) -> None:
        """End the surge on a pair (or the global surge)."""
        key = self.EVERYWHERE if region_a is None \
            else frozenset((region_a, region_b or region_a))
        self._latency_surges.pop(key, None)

    def surge_ms(self, src: Placement, dst: Placement) -> float:
        """Extra one-way milliseconds currently applied to a path."""
        if not self._latency_surges or src == dst:
            return 0.0
        extra = self._latency_surges.get(self.EVERYWHERE, 0.0)
        extra += self._latency_surges.get(
            frozenset((src.region, dst.region)), 0.0)
        return extra

    # -- partitions -----------------------------------------------------------
    def partition(self, region_a: str, region_b: str) -> None:
        """Cut connectivity between two regions.

        Models the §II hazard: "unreachable replicas due to network
        partitioning cause suspension of synchronization".  Messages
        sent while the pair is partitioned are held (TCP keeps
        retrying) and delivered after :meth:`heal`.
        """
        if region_a == region_b:
            raise ValueError("cannot partition a region from itself")
        self._down_region_pairs.add(frozenset((region_a, region_b)))

    def heal(self, region_a: str, region_b: str) -> None:
        """Restore connectivity; held traffic flows again."""
        key = frozenset((region_a, region_b))
        self._down_region_pairs.discard(key)
        for waiter in self._heal_waiters.pop(key, []):
            waiter.succeed()

    def is_partitioned(self, src: Placement, dst: Placement) -> bool:
        down = self._down_region_pairs
        return bool(down) and frozenset((src.region, dst.region)) in down

    def when_healed(self, src: Placement, dst: Placement) -> Event:
        """Event firing when the pair becomes reachable (now if up)."""
        ev = Event(self.sim)
        key = frozenset((src.region, dst.region))
        if key in self._down_region_pairs:
            self._heal_waiters.setdefault(key, []).append(ev)
        else:
            ev.succeed()
        return ev

    def sample_one_way(self, src: Placement, dst: Placement) -> float:
        """One jittered one-way latency sample, in **seconds**."""
        pair = (src.region, src.zone, dst.region, dst.zone)
        median_ms = self._medians.get(pair)
        if median_ms is None:
            median_ms = self._medians[pair] = \
                self.model.median_one_way_ms(src, dst)
        if self._latency_surges:
            median_ms += self.surge_ms(src, dst)
        sample_ms = self.streams.lognormal_around(
            "network.latency", median_ms, self.model.jitter_sigma)
        return max(sample_ms, self.model.floor_ms) / 1000.0

    def send(self, src: Placement, dst: Placement, payload: Any = None,
             size_bytes: int = 0,
             on_delivery: Optional[Callable[[Any], None]] = None) -> Event:
        """Send ``payload``; the returned event fires on delivery.

        ``on_delivery`` (if given) is invoked with the payload at the
        moment of delivery — convenient for pushing into a mailbox
        without a dedicated process.  Sends across a partitioned
        region pair are held until the partition heals.
        """
        if self.is_partitioned(src, dst):
            delivered = Event(self.sim)

            def retry(_healed, payload=payload):
                inner = self.send(src, dst, payload, size_bytes,
                                  on_delivery)
                inner.callbacks.append(
                    lambda ev: delivered.succeed(ev.value))

            self.when_healed(src, dst).callbacks.append(retry)
            return delivered
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        delay = self.sample_one_way(src, dst)
        delivered = self.sim.timeout(delay, value=payload)
        if on_delivery is not None:
            delivered.callbacks.append(lambda ev: on_delivery(ev.value))
        return delivered

    def round_trip(self, src: Placement, dst: Placement) -> Event:
        """An event that fires after a full round trip (two samples)."""
        rtt = self.sample_one_way(src, dst) + self.sample_one_way(dst, src)
        return self.sim.timeout(rtt, value=rtt)

    def ping(self, src: Placement, dst: Placement,
             count: int = 1) -> np.ndarray:
        """``count`` instantaneous RTT probes in **milliseconds** (no
        sim time), like ``ping -c count``.

        Used by characterization code that, like the paper, runs ping
        once a second and reports the distribution of 1/2 RTT.  Probe
        ``i`` is what two :meth:`sample_one_way` calls (there, then
        back) would sum to, times 1000: the legs read the latency
        stream's next ``2 * count`` normals in turn.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count!r}")
        model = self.model
        z = self.streams.variates("network.latency", "normal", 2 * count)
        jitter = np.exp(0.0 + model.jitter_sigma * z)
        there_ms = model.median_one_way_ms(src, dst) + self.surge_ms(src, dst)
        back_ms = model.median_one_way_ms(dst, src) + self.surge_ms(dst, src)
        there = np.maximum(there_ms * jitter[0::2], model.floor_ms) / 1000.0
        back = np.maximum(back_ms * jitter[1::2], model.floor_ms) / 1000.0
        return (there + back) * 1000.0

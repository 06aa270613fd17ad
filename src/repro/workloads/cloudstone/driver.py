"""Closed-loop load generator.

Emulates N concurrent users against the proxy, exactly as the paper's
customized Cloudstone does: each user repeatedly thinks (exponential
think time), borrows a pooled connection, runs one operation from the
mix (all statements pinned to one server: master for write operations,
one balanced slave for read operations) and releases the connection.

Runs follow the paper's phase structure (§III-B): ramp-up (users start
staggered), a steady stage where throughput is measured, and ramp-down.
The paper uses 10 / 20 / 5 minutes; phases are configurable so benches
can run time-scaled versions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from typing import Optional

from ...db.errors import DatabaseError
from ...metrics import TimeSeries
from ...replication.pool import ConnectionPool, PoolTimeout
from ...replication.proxy import ReadWriteSplitProxy
from ...replication.retry import RetryPolicy
from ...sim import RandomStreams, Simulator
from .mix import OperationMix
from .state import WorkloadState

__all__ = ["Phases", "PAPER_PHASES", "LoadGenerator"]


@dataclass(frozen=True)
class Phases:
    """Run phase durations in seconds."""

    ramp_up: float = 600.0
    steady: float = 1200.0
    ramp_down: float = 300.0

    @property
    def steady_start(self) -> float:
        return self.ramp_up

    @property
    def steady_end(self) -> float:
        return self.ramp_up + self.steady

    @property
    def total(self) -> float:
        return self.ramp_up + self.steady + self.ramp_down

    def scaled(self, factor: float) -> "Phases":
        """A time-scaled copy (benches use factor < 1)."""
        return Phases(self.ramp_up * factor, self.steady * factor,
                      self.ramp_down * factor)


#: The paper's 35-minute run: 10' ramp-up, 20' steady, 5' ramp-down.
PAPER_PHASES = Phases()


class LoadGenerator:
    """Drives ``n_users`` emulated users through the proxy."""

    def __init__(self, sim: Simulator, proxy: ReadWriteSplitProxy,
                 pool: ConnectionPool, mix: OperationMix,
                 state: WorkloadState, streams: RandomStreams,
                 n_users: int, think_time_mean: float = 7.0,
                 phases: Phases = PAPER_PHASES,
                 retry: Optional[RetryPolicy] = None):
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        if think_time_mean <= 0:
            raise ValueError("think_time_mean must be positive")
        self.sim = sim
        self.proxy = proxy
        self.pool = pool
        self.mix = mix
        self.state = state
        self.streams = streams
        self.n_users = n_users
        self.think_time_mean = think_time_mean
        self.phases = phases
        #: None reproduces the paper's driver exactly (one attempt, no
        #: acquire bound); fault drills pass a policy so users survive
        #: failover windows instead of burning every operation.
        self.retry = retry
        #: (completion time, operation latency) for every operation.
        self.completions = TimeSeries()
        self.read_completions = TimeSeries()
        self.write_completions = TimeSeries()
        self.op_counts: Counter = Counter()
        self.errors = 0
        self.retries = 0
        self.pool_timeouts = 0
        #: Cached instrument handles for the completion hot path,
        #: keyed by registry identity (see monitor.sample_now).
        self._metrics_registry = None
        self._latency_histogram = None
        self._retry_counter = None
        self._op_counters: dict = {}
        self._started = False
        #: The spawned user processes, so a drill (or test) can
        #: interrupt individual users mid-run.
        self.user_processes: list = []
        #: Sim time at which :meth:`start` was called; phase windows
        #: are relative to it.
        self.t0 = 0.0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> None:
        """Spawn the user processes (staggered across ramp-up)."""
        if self._started:
            raise RuntimeError("load generator already started")
        self._started = True
        self.t0 = self.sim.now
        self.state.now_fn = lambda: self.sim.now
        for index in range(self.n_users):
            self.user_processes.append(
                self.sim.process(self._user(index), name=f"user-{index}"))

    def _user(self, index: int):
        rng = self.streams.spawn("cloudstone.user", index)
        deadline = self.t0 + self.phases.total
        # Stagger arrivals uniformly across the ramp-up phase.
        if self.phases.ramp_up > 0:
            yield self.sim.timeout(
                float(rng.uniform(0.0, self.phases.ramp_up)))
        while self.sim.now < deadline:
            yield self.sim.timeout(
                float(rng.exponential(self.think_time_mean)))
            if self.sim.now >= deadline:
                return
            operation = self.mix.pick(rng)
            statements = operation.build(self.state, rng)
            policy = self.retry
            attempts = policy.max_attempts if policy is not None else 1
            acquire_timeout = policy.acquire_timeout \
                if policy is not None else None
            completed = False
            latency = 0.0
            with self.sim.tracer.span("driver.request",
                                      category="driver",
                                      op=operation.name,
                                      user=index) as span:
                for attempt in range(attempts):
                    failed = False
                    try:
                        connection = yield from self.pool.acquire(
                            timeout=acquire_timeout)
                    except PoolTimeout:
                        self.pool_timeouts += 1
                        failed = True
                    else:
                        started_at = self.sim.now
                        try:
                            server = self.proxy.master \
                                if operation.is_write \
                                else self.proxy.pick_read_server(
                                    session=index)
                            for sql, params in statements:
                                yield from self.proxy.execute(
                                    sql, params, server=server)
                            if operation.is_write:
                                self.proxy.note_write(index)
                        except DatabaseError:
                            # A failed operation (server offline
                            # mid-failover, rejected statement) must
                            # not kill the emulated user: real
                            # Cloudstone drivers log the error and
                            # keep generating load.  The finally below
                            # still returns the connection, so
                            # pool.active drains back to zero.
                            failed = True
                        finally:
                            self.pool.release(connection)
                    if not failed:
                        completed = True
                        latency = self.sim.now - started_at
                        break
                    if attempt + 1 < attempts:
                        # Backoff happens with no connection held (it
                        # was released above): an interrupt landing in
                        # this sleep cannot leak a pool slot.
                        self.retries += 1
                        if self.sim.metrics.enabled:
                            self._note_retry(self.sim.metrics)
                        yield self.sim.timeout(
                            policy.backoff_for(attempt, rng))
                if not completed:
                    span.set_attribute("error", True)
                    self.errors += 1
            if completed:
                operation.on_complete(self.state)
                self._record(operation, latency)

    def _record(self, operation, latency: float) -> None:
        now = self.sim.now
        self.completions.record(now, latency)
        if operation.is_write:
            self.write_completions.record(now, latency)
        else:
            self.read_completions.record(now, latency)
        self.op_counts[operation.name] += 1
        metrics = self.sim.metrics
        if metrics.enabled:
            if self._metrics_registry is not metrics:
                self._bind_instruments(metrics)
            self._latency_histogram.observe(latency)
            op_counter = self._op_counters.get(operation.name)
            if op_counter is None:
                op_counter = self._op_counters[operation.name] = \
                    metrics.counter(f"driver.ops.{operation.name}")
            op_counter.inc()

    def _note_retry(self, metrics) -> None:
        if self._metrics_registry is not metrics:
            self._bind_instruments(metrics)
        self._retry_counter.inc()

    def _bind_instruments(self, metrics) -> None:
        """Intern the driver's instrument handles for ``metrics``.

        Registry lookups are dict gets, but the driver publishes per
        completed operation; binding the handles once per registry
        keeps the hot path to attribute loads."""
        self._metrics_registry = metrics
        self._latency_histogram = metrics.histogram("driver.latency_s")
        self._retry_counter = metrics.counter("driver.retries")
        self._op_counters.clear()

    # -- measurements ------------------------------------------------------------
    @property
    def steady_window(self) -> tuple[float, float]:
        """Absolute sim-time bounds of the steady stage."""
        return (self.t0 + self.phases.steady_start,
                self.t0 + self.phases.steady_end)

    def steady_throughput(self) -> float:
        """End-to-end operations/second over the steady stage — the
        paper's headline metric."""
        return self.completions.rate_in(*self.steady_window)

    def steady_read_write_ratio(self) -> float:
        """Achieved read fraction over the steady stage."""
        reads = self.read_completions.count_in(*self.steady_window)
        writes = self.write_completions.count_in(*self.steady_window)
        total = reads + writes
        return reads / total if total else 0.0

    def steady_mean_latency(self) -> float:
        window = self.completions.window(*self.steady_window)
        if not window:
            return 0.0
        return sum(window) / len(window)

    def steady_latency_percentiles(self,
                                   percentiles=(50.0, 95.0, 99.0)
                                   ) -> dict[float, float]:
        """Operation-latency percentiles over the steady stage (s)."""
        import numpy as np
        window = self.completions.window(*self.steady_window)
        if not window:
            return {p: 0.0 for p in percentiles}
        values = np.percentile(np.asarray(window), percentiles)
        return dict(zip(percentiles, (float(v) for v in values)))

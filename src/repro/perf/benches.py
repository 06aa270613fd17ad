"""The layer benches: three regimes no artifact workload reaches.

Artifact-shaped work — statements through the plan cache, the engine
under the Cloudstone mix, binlog ship/apply, whole cells — is timed
by ``python bench/run.py`` and its ledger rows (``sql.prepare.*``,
``sql.plancache.hit_ratio``, ``db.execute.*``, ``db.binlog_append.*``,
``replication.*``), under the traffic a cluster really sends.  Left
here, each seed-deterministic in its workload shape:

* ``kernel.events`` — the sim kernel's event loop under a seeded
  timeout storm with AnyOf joins (events per wall-second);
* ``sql.parse_cold`` — the raw parser over the Cloudstone templates,
  no cache (a cluster parses a few dozen texts per run);
* ``obs.stream`` — the live telemetry pipeline: seeded samples fanned
  through rate / EWMA / sliding-quantile / sliding-max operator
  chains, without a drill around it.

Every factory sizes its workload from the scale profile (quick /
standard / full) and returns counters that are a pure function of
``(seed, scale)``.
"""

from __future__ import annotations

from ..sim import RandomStreams, Simulator
from ..sql.parser import parse
from ..workloads.cloudstone.mix import MIX_50_50
from ..workloads.cloudstone.schema import TAG_COUNT
from ..workloads.cloudstone.state import WorkloadState
from .registry import SCALES, BenchCase, register

__all__ = ["statement_corpus"]


def statement_corpus(seed: int,
                     n_operations: int) -> list[tuple[str, tuple]]:
    """The ``(template, params)`` statements of ``n_operations``
    seeded Cloudstone 50/50 operations, as the driver hands them to
    the proxy: same ``(seed, n_operations)`` -> identical statements.
    """
    rng = RandomStreams(seed).stream("perf.corpus")
    state = WorkloadState(n_users=200, n_events=200, n_tags=TAG_COUNT)
    statements: list[tuple[str, tuple]] = []
    for _ in range(n_operations):
        operation = MIX_50_50.pick(rng)
        statements.extend(operation.build(state, rng))
        operation.on_complete(state)
    return statements


# ------------------------------------------------------------- kernel
@register("kernel.events", subsystem="sim", unit="events",
          description="sim kernel event loop on a seeded timeout "
                      "storm (plus AnyOf joins every 16th step)")
def _kernel_events(seed: int, scale: str) -> BenchCase:
    class Storm(BenchCase):
        n_processes = 50
        iterations = 160 * SCALES[scale]

        def prepare(self):
            sim = Simulator()
            streams = RandomStreams(seed)
            executed = [0]

            def storm(sim, rng, iterations):
                for step in range(iterations):
                    delay = float(rng.random()) * 0.01
                    if step % 16 == 15:
                        # Exercise the composite-event path too.
                        yield sim.any_of([sim.timeout(delay),
                                          sim.timeout(delay * 2.0)])
                    else:
                        yield sim.timeout(delay)
                    executed[0] += 1

            for index in range(self.n_processes):
                rng = streams.spawn("perf.kernel", index)
                sim.process(storm(sim, rng, self.iterations),
                            name=f"storm-{index}")

            def run():
                sim.run()
                return {"events": executed[0],
                        "processes": self.n_processes,
                        "sim_time_us": int(round(sim.now * 1e6))}
            return run
    return Storm()


# ---------------------------------------------------------------- sql
@register("sql.parse_cold", subsystem="sql", unit="statements",
          description="raw (uncached) SQL parse over the fixed "
                      "Cloudstone statement mix (50/50)")
def _sql_parse_cold(seed: int, scale: str) -> BenchCase:
    class ParseCold(BenchCase):
        corpus = statement_corpus(seed, 60 * SCALES[scale])

        def prepare(self):
            corpus = self.corpus

            def run():
                for text, _params in corpus:
                    parse(text)
                return {"statements": len(corpus),
                        "chars": sum(len(text) for text, _ in corpus)}
            return run
    return ParseCold()


# ---------------------------------------------------------------- obs
@register("obs.stream", subsystem="obs", unit="updates",
          description="live pipeline fan-out: seeded samples through "
                      "rate/EWMA/sliding-quantile/sliding-max "
                      "operator chains")
def _obs_stream(seed: int, scale: str) -> BenchCase:
    from ..obs.live.streams import (Ewma, LivePipeline, SlidingMax,
                                    SlidingQuantile, WindowedRate)

    class Stream(BenchCase):
        n_streams = 4
        samples = 500 * SCALES[scale]

        def __init__(self):
            # The sample tape is drawn once; the timed phase replays
            # it through a fresh pipeline each repeat.
            names = [f"bench.s{index}"
                     for index in range(self.n_streams)]
            rng = RandomStreams(seed).stream("perf.obs")
            tape: list[tuple[str, float, float]] = []
            t = 0.0
            for index in range(self.samples):
                t += float(rng.random()) * 0.1
                tape.append((names[index % self.n_streams], t,
                             float(rng.random()) * 4.0))
            self.names = names
            self.tape = tape
            self.final_t = t

        def prepare(self):
            pipeline = LivePipeline()
            for name in self.names:
                pipeline.derive(name + ".rate",
                                WindowedRate(10.0), name)
                pipeline.derive(name + ".ewma", Ewma(5.0), name)
                pipeline.derive(name + ".p95",
                                SlidingQuantile(0.95, 10.0), name)
                pipeline.derive(name + ".max", SlidingMax(10.0), name)
            tape = self.tape
            final_t = self.final_t

            def run():
                import math
                publish = pipeline.publish
                for name, t, value in tape:
                    publish(name, value, t)
                checksum = 0
                for name in pipeline.names():
                    value = pipeline.read(name, final_t)
                    if value is not None and math.isfinite(value):
                        checksum += int(round(value * 1e3))
                return {"updates": pipeline.published,
                        "streams": len(pipeline),
                        "checksum_milli": checksum}
            return run
    return Stream()

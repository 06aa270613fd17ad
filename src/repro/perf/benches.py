"""The standard benchmark suite.

The benches cover the hot paths the ROADMAP's raw-speed flywheel
targets, each seed-deterministic in its workload shape:

* ``kernel.events`` — the sim kernel's event loop under a seeded
  timeout storm (events per wall-second);
* ``sql.parse`` — the plan-cached SQL front end over the fixed
  Cloudstone statement mix as clients send it, ``(template, params)``
  (steady state: primed cache);
* ``sql.parse_cold`` — the raw parser over the same templates, no
  cache (tracks the parser itself across optimisation rounds);
* ``db.query_mix`` — :class:`~repro.db.engine.StorageEngine` statement
  execution over the same mix against a loaded Cloudstone database,
  through the prepared-plan cache every cluster engine has;
* ``repl.binlog`` — binlog encode (append), ship (wire-size walk) and
  apply (the event text re-executed on a slave engine sharing the
  master's plan cache, as ``SlaveServer`` does);
* ``obs.stream`` — the live telemetry pipeline: seeded samples fanned
  through rate / EWMA / sliding-quantile / sliding-max operator
  chains;
* ``e2e.cell`` — one quick end-to-end experiment cell
  (:func:`~repro.experiments.runner.run_experiment`).

Every factory sizes its workload from the scale profile (quick /
standard / full) and returns counters that are a pure function of
``(seed, scale)``.
"""

from __future__ import annotations

from types import SimpleNamespace

from ..db.binlog import Binlog
from ..db.engine import StorageEngine
from ..experiments.config import PAPER_50_50, LocationConfig
from ..sim import RandomStreams, Simulator
from ..sql.parser import parse
from ..sql.plancache import PlanCache
from ..workloads.cloudstone import Phases, load_initial_data
from ..workloads.cloudstone.mix import MIX_50_50, OperationMix
from ..workloads.cloudstone.schema import TAG_COUNT
from ..workloads.cloudstone.state import WorkloadState
from .registry import SCALES, BenchCase, register

__all__ = ["statement_corpus"]

#: Write-only mix for the replication bench (only writes replicate).
_WRITES_ONLY = OperationMix("writes", read_fraction=0.0)


def statement_corpus(seed: int, n_operations: int,
                     mix: OperationMix = MIX_50_50,
                     stream: str = "perf.corpus"
                     ) -> list[tuple[str, tuple]]:
    """The ``(template, params)`` statements of ``n_operations``
    seeded Cloudstone operations, as the driver hands them to the proxy.

    The corpus is the fixed statement mix every SQL-facing bench runs:
    same ``(seed, n_operations, mix)`` -> identical statements.
    """
    streams = RandomStreams(seed)
    rng = streams.stream(stream)
    state = WorkloadState(n_users=200, n_events=200, n_tags=TAG_COUNT)
    statements: list[tuple[str, tuple]] = []
    for _ in range(n_operations):
        operation = mix.pick(rng)
        statements.extend(operation.build(state, rng))
        operation.on_complete(state)
    return statements


def _loaded_engine(seed: int, data_size: int,
                   plan_cache: PlanCache) -> StorageEngine:
    """A fresh engine holding the seeded Cloudstone dataset, wired to
    ``plan_cache`` the way ``ReplicationManager`` wires every engine
    of a cluster to its one shared cache — a bare engine would
    re-parse and re-compile every statement, which no cluster does."""
    engine = StorageEngine(default_database="cloudstone",
                           plan_cache=plan_cache)
    streams = RandomStreams(seed)
    # The loader takes a server: anything with ``.engine``.
    load_initial_data(SimpleNamespace(engine=engine), data_size,
                      streams.stream("perf.load"))
    return engine


def _warm(plan_cache: PlanCache, statements) -> PlanCache:
    """Parse (and, for literal text, prove) every template
    ``statements`` needs, so no timed run pays for a first sighting."""
    for text, params in statements:
        plan_cache.prepare(text, params)
    return plan_cache


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
@register("sql.parse", subsystem="sql", unit="statements",
          description="plan-cached SQL front end over the fixed "
                      "Cloudstone (template, params) mix (50/50, "
                      "x40): one untimed priming pass, then the "
                      "timed warm pass")
def _sql_parse(seed: int, scale: str) -> BenchCase:
    class Parse(BenchCase):
        #: An exact-level hit is a fraction of a microsecond; the mix
        #: is replayed until the timed window is milliseconds long.
        corpus = statement_corpus(seed, 60 * SCALES[scale]) * 40

        def prepare(self):
            # A fresh cache per repeat, primed by one untimed pass:
            # the timed pass measures the steady state servers live
            # in, and the cumulative hit/miss counters stay a pure
            # function of (seed, scale) regardless of warmup count.
            corpus = self.corpus
            cache = _warm(PlanCache(), corpus)
            chars = sum(len(text) for text, _ in corpus)

            def run():
                prepare = cache.prepare
                for text, params in corpus:
                    prepare(text, params)
                return {"statements": len(corpus), "chars": chars,
                        "cache_hits": cache.hits,
                        "cache_misses": cache.misses}
            return run
    return Parse()


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


# ----------------------------------------------------------------- db
@register("db.query_mix", subsystem="db", unit="statements",
          description="StorageEngine execution of the Cloudstone "
                      "50/50 mix against a loaded dataset")
def _db_query_mix(seed: int, scale: str) -> BenchCase:
    class QueryMix(BenchCase):
        data_size = 30 * SCALES[scale]
        corpus = statement_corpus(seed, 100 * SCALES[scale])
        #: Shared by every repeat's engine and warmed once, so each
        #: timed run is a cluster past its first seconds: templates
        #: proven, execution (not parsing) on the clock.
        plan_cache = _warm(PlanCache(), corpus)

        def prepare(self):
            # A fresh engine per repeat: the mix mutates the dataset,
            # so re-running on the same engine would change the shape.
            engine = _loaded_engine(seed, self.data_size,
                                    self.plan_cache)
            corpus = self.corpus

            def run():
                examined = returned = affected = commits = 0
                for text, params in corpus:
                    outcome = engine.execute(text, params,
                                             database="cloudstone")
                    examined += outcome.profile.rows_examined
                    returned += outcome.profile.rows_returned
                    affected += outcome.profile.rows_affected
                    commits += len(outcome.committed)
                return {"statements": len(corpus),
                        "rows_examined": examined,
                        "rows_returned": returned,
                        "rows_affected": affected,
                        "commits": commits}
            return run
    return QueryMix()


# --------------------------------------------------------- replication
@register("repl.binlog", subsystem="replication", unit="events",
          description="binlog encode + wire-size ship + statement "
                      "re-execution apply on a slave engine")
def _repl_binlog(seed: int, scale: str) -> BenchCase:
    class BinlogPipeline(BenchCase):
        data_size = 30 * SCALES[scale]

        def __init__(self):
            # Committed (text, database) pairs are collected once on a
            # master-side engine; the timed phase re-ships them.  One
            # plan cache for master and slaves, as in a cluster,
            # warmed with the event texts the slaves will apply.
            self.plan_cache = PlanCache()
            master = _loaded_engine(seed, self.data_size,
                                    self.plan_cache)
            self.committed: list[tuple[str, str]] = []
            for text, params in statement_corpus(
                    seed, 150 * SCALES[scale], mix=_WRITES_ONLY,
                    stream="perf.binlog"):
                outcome = master.execute(text, params,
                                         database="cloudstone")
                self.committed.extend(outcome.committed)
            for text, _database in self.committed:
                self.plan_cache.prepare(text)

        def prepare(self):
            slave = _loaded_engine(seed, self.data_size,
                                   self.plan_cache)
            binlog = Binlog(Simulator(), server_id=1)
            committed = self.committed

            def run():
                shipped_bytes = 0
                for text, database in committed:
                    event = binlog.append(text, database,
                                          commit_wallclock=0.0)
                    shipped_bytes += event.size_bytes
                applied_rows = 0
                cursor = 0
                while True:
                    chunk = binlog.read_from(cursor, max_events=64)
                    if not chunk:
                        break
                    cursor += len(chunk)
                    for event in chunk:
                        outcome = slave.execute(
                            event.statement, database=event.database)
                        applied_rows += outcome.profile.rows_affected
                return {"events": binlog.head_position,
                        "bytes": shipped_bytes,
                        "rows_applied": applied_rows}
            return run
    return BinlogPipeline()


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


# ---------------------------------------------------------------- e2e
_E2E_SIZES = {
    # scale -> (users, phase time factor, baseline seconds)
    "quick": (10, 0.02, 5.0),
    "standard": (20, 0.05, 10.0),
    "full": (50, 0.10, 20.0),
}


@register("e2e.cell", subsystem="experiments", unit="operations",
          description="one quick end-to-end cell: cloud + replication "
                      "tree + Cloudstone users through run_experiment")
def _e2e_cell(seed: int, scale: str) -> BenchCase:
    class Cell(BenchCase):
        users, factor, baseline = _E2E_SIZES[scale]

        def prepare(self):
            from ..experiments.runner import run_experiment
            config = PAPER_50_50(
                LocationConfig.SAME_ZONE, 1, self.users,
                Phases().scaled(self.factor), seed=seed,
                baseline_duration=self.baseline)

            def run():
                result = run_experiment(config)
                return {
                    "users": self.users,
                    "slaves": 1,
                    "operations": int(round(result.throughput
                                            * config.phases.steady)),
                    "heartbeats": sum(result.heartbeat_counts),
                    "throughput_milli_ops":
                        int(round(result.throughput * 1000.0)),
                    "mean_latency_us":
                        int(round(result.mean_latency_s * 1e6)),
                }
            return run
    return Cell()

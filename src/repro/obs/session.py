"""The observability bundle: tracer + metrics + kernel profiler,
attached to one simulator for one run.

``run_experiment(config, observe=Observability())`` turns the whole
pipeline's instrumentation on; afterwards :meth:`write_artifacts`
drops four files::

    trace.json     Chrome trace-event JSON (open in Perfetto)
    spans.jsonl    one finished span per line
    metrics.jsonl  one instrument snapshot per line
    profile.txt    the kernel "where did simulated time go" table

Everything is keyed off simulated time, so the artifacts are a pure
function of the experiment config (seed included).
"""

from __future__ import annotations

import os
from typing import Optional

from .export import chrome_trace, metrics_jsonl, spans_jsonl, trace_meta
from .kernelprof import KernelProfiler, render_profile
from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["Observability"]


class Observability:
    """Configuration + live handles for one observed run."""

    def __init__(self, monitor_period: Optional[float] = 5.0):
        #: Period of the ClusterMonitor the runner starts for observed
        #: runs (None: no monitor, gauges stay empty).
        self.monitor_period = monitor_period
        self.tracer: Optional[Tracer] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.profiler: Optional[KernelProfiler] = None
        self._sim = None

    def attach(self, sim) -> "Observability":
        """Wire the three recorders into ``sim`` (once)."""
        if self._sim is not None:
            raise RuntimeError("Observability is already attached — "
                               "use one bundle per run")
        self._sim = sim
        self.tracer = sim.tracer = Tracer(sim)
        self.metrics = sim.metrics = MetricsRegistry(
            now_fn=lambda: sim.now)
        self.profiler = sim.profiler = KernelProfiler()
        return self

    def _attached_sim(self):
        if self._sim is None:
            raise RuntimeError("Observability was never attached to a "
                               "run — pass it to run_experiment")
        return self._sim

    def finalize(self) -> None:
        """Freeze the trace (drop any teardown-time span ends)."""
        self._attached_sim()
        self.tracer.close()

    def meta(self) -> dict:
        """The trace-health rider (dropped spans, profiler residue)."""
        return trace_meta(self.tracer, profiler=self.profiler,
                          final_sim_time=self._attached_sim().now)

    # -- artifacts -----------------------------------------------------------
    def write_artifacts(self, directory: str) -> dict[str, str]:
        """Write the four artifacts under ``directory``; returns
        ``{artifact name: path}``."""
        final_sim_time = self._attached_sim().now
        os.makedirs(directory, exist_ok=True)
        paths: dict[str, str] = {}

        def write(name: str, text: str) -> None:
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            paths[name] = path

        write("trace.json", chrome_trace(
            self.tracer, profiler=self.profiler, metrics=self.metrics,
            final_sim_time=final_sim_time))
        write("spans.jsonl", spans_jsonl(self.tracer, meta=self.meta()))
        write("metrics.jsonl", metrics_jsonl(self.metrics))
        write("profile.txt", render_profile(self.profiler) + "\n")
        return paths

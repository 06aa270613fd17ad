"""Deterministic, sim-time observability for the reproduction.

Three pillars (see ISSUE 3 / README "Observability"):

* **tracing** — :class:`Tracer` / :class:`Span`: named sim-time
  intervals with parent links, instrumented through the request
  lifecycle (driver op → proxy route → pool acquire → engine execute)
  and the replication pipeline (commit → binlog → ship → relay →
  apply);
* **metrics** — :class:`MetricsRegistry`: counters, gauges and
  histograms every component publishes into;
* **kernel profiling** — :class:`KernelProfiler`: per-process event
  counts and consumed sim-time.

All three are zero-cost when disabled (the ``NULL_*`` singletons are
what a fresh :class:`~repro.sim.Simulator` carries) and fully
deterministic when enabled — timestamps are simulated seconds, so the
exported artifacts are byte-identical across same-seed runs.

The :mod:`repro.obs.analyze` subpackage is the analysis plane over
these artifacts (staleness waterfalls, bottleneck attribution, knee
detection) — import it explicitly; it is not re-exported here so the
kernel's import of the null singletons stays lean.

This package must not import :mod:`repro.sim` (the kernel imports the
null singletons from here) — except :mod:`repro.sim.actor`, which the
live plane's periodic jobs run on and which loads while the kernel is
still loading.
"""

from .export import (chrome_trace, metrics_jsonl, span_record,
                     sorted_spans, spans_jsonl, trace_meta)
from .kernelprof import KernelProfiler, render_profile
from .metrics import (Counter, DEFAULT_BUCKETS, Gauge, Histogram,
                      MetricsRegistry, NullMetrics, NULL_METRICS)
from .session import Observability
from .tracer import NullTracer, NULL_TRACER, Span, Tracer

__all__ = [
    "Tracer", "Span", "NullTracer", "NULL_TRACER",
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "NullMetrics", "NULL_METRICS", "DEFAULT_BUCKETS",
    "KernelProfiler", "render_profile",
    "Observability",
    "chrome_trace", "spans_jsonl", "metrics_jsonl", "span_record",
    "sorted_spans", "trace_meta",
]

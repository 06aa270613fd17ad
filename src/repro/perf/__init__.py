"""The layer-bench plane: ``python -m repro bench``.

The number to quote for speed is ``python bench/run.py`` — the five
paper artifacts, end to end and per layer (``bench/README.md``).  This
package times only what no artifact workload reaches, and holds the
wall-clock profiler a real run is profiled with:

* :mod:`registry`/:mod:`benches` — three named, seed-deterministic
  layer benches (``kernel.events``, ``sql.parse_cold``,
  ``obs.stream``) whose workload-shape counters are byte-stable per
  seed, so two BENCH files from one seed differ only in timings.
* :mod:`harness` — warmup + N repeats per bench, min/median/CoV stats,
  the canonical ``BENCH_<date>.json`` document.
* :mod:`compare` — ``repro bench --compare OLD.json``: per-bench delta
  table, exit 1 on regression; one BENCH file is committed per
  perf-relevant PR so every change shows a trajectory.
* :mod:`wallprof` — the ``sys.setprofile`` :class:`WallProfiler`
  behind ``repro trace|chaos --wall-profile``: wall time per repro
  layer plus a collapsed-stack flamegraph file.
"""

from .compare import (CompareReport, compare_documents,
                      load_bench_file, render_compare_json,
                      render_compare_text)
from .harness import (SCHEMA_VERSION, BenchResult, BenchStats,
                      SuiteResult, bench_document, render_suite_text,
                      run_suite, stable_view, write_bench_file)
from .registry import BenchSpec, all_benchmarks, get_benchmark, register
from .wallprof import WallProfiler, render_wallprof
from . import benches  # noqa: F401  (registers the standard suite)

__all__ = [
    "SCHEMA_VERSION", "CompareReport", "compare_documents",
    "load_bench_file", "render_compare_json", "render_compare_text",
    "BenchResult", "BenchStats", "SuiteResult", "bench_document",
    "render_suite_text", "run_suite", "stable_view",
    "write_bench_file",
    "BenchSpec", "all_benchmarks", "get_benchmark", "register",
    "WallProfiler", "render_wallprof",
]

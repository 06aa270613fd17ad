"""Run the suite: warmup + N repeats, stats, the BENCH document.

Timings use the wall clock (that is the whole point) and are the
*only* non-deterministic content of a BENCH document: the workload
counters are asserted identical across repeats, and
:func:`stable_view` strips the timing/host fields so two same-seed
documents can be compared byte-for-byte.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Optional

from .registry import SCALES, BenchSpec

__all__ = ["BenchStats", "BenchResult", "SuiteResult", "run_bench",
           "run_suite", "bench_document", "stable_view",
           "write_bench_file", "render_suite_text"]

#: Bumped whenever the BENCH document layout changes incompatibly;
#: ``--compare`` refuses to diff across versions.
SCHEMA_VERSION = 1

#: CoV above this gets flagged as too noisy to trust a small delta.
DEFAULT_COV_LIMIT = 0.35


@dataclass(frozen=True)
class BenchStats:
    """Timing summary over the repeats (seconds per repeat)."""

    min_s: float
    median_s: float
    mean_s: float
    cov: float                  # std/mean over the repeats
    repeats: int

    @classmethod
    def from_samples(cls, samples: list[float]) -> "BenchStats":
        ordered = sorted(samples)
        n = len(ordered)
        mid = n // 2
        median = ordered[mid] if n % 2 else \
            (ordered[mid - 1] + ordered[mid]) / 2.0
        mean = sum(ordered) / n
        if n > 1 and mean > 0.0:
            var = sum((s - mean) ** 2 for s in ordered) / (n - 1)
            cov = var ** 0.5 / mean
        else:
            cov = 0.0
        return cls(min_s=ordered[0], median_s=median, mean_s=mean,
                   cov=cov, repeats=n)

    def as_dict(self) -> dict:
        return {"min_s": self.min_s, "median_s": self.median_s,
                "mean_s": self.mean_s, "cov": self.cov,
                "repeats": self.repeats}


@dataclass
class BenchResult:
    """One bench's outcome: stable counters + volatile stats."""

    name: str
    subsystem: str
    unit: str
    counters: dict
    stats: BenchStats

    @property
    def rate_per_s(self) -> float:
        """unit-counter per wall-second at the median repeat."""
        amount = self.counters.get(self.unit, 0)
        return amount / self.stats.median_s if self.stats.median_s \
            else 0.0


@dataclass
class SuiteResult:
    """Every bench result plus the run parameters."""

    seed: int
    scale: str
    repeats: int
    warmup: int
    results: list[BenchResult] = field(default_factory=list)


def run_bench(spec: BenchSpec, seed: int, scale: str, repeats: int,
              warmup: int) -> BenchResult:
    """Warmup + ``repeats`` timed runs of one bench.

    ``prepare()`` rebuilds per-repeat state *outside* the timed
    window; counters must repeat byte-identically or the bench is not
    seed-deterministic and we fail loudly.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} "
                         f"(choose from {sorted(SCALES)})")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    case = spec.factory(seed, scale)
    for _ in range(warmup):
        case.prepare()()
    samples: list[float] = []
    counters: Optional[dict] = None
    for repeat in range(repeats):
        run = case.prepare()
        started = time.perf_counter()  # simlint: disable=DET001  # simtaint: blessed=benchmark-harness-wall-time
        observed = run()
        elapsed = time.perf_counter() - started  # simlint: disable=DET001  # simtaint: blessed=benchmark-harness-wall-time
        samples.append(elapsed)
        if counters is None:
            counters = observed
        elif observed != counters:
            raise RuntimeError(
                f"bench {spec.name!r} is not seed-deterministic: "
                f"repeat {repeat + 1} returned {observed!r}, first "
                f"repeat returned {counters!r}")
    return BenchResult(name=spec.name, subsystem=spec.subsystem,
                       unit=spec.unit, counters=counters or {},
                       stats=BenchStats.from_samples(samples))


def run_suite(specs: list[BenchSpec], seed: int = 0,
              scale: str = "quick", repeats: int = 5,
              warmup: int = 1) -> SuiteResult:
    """Run ``specs`` in name order."""
    return SuiteResult(
        seed=seed, scale=scale, repeats=repeats, warmup=warmup,
        results=[run_bench(spec, seed, scale, repeats, warmup)
                 for spec in sorted(specs, key=lambda s: s.name)])


# ----------------------------------------------------- BENCH document
def _host_fingerprint() -> dict:
    """Where the numbers came from (excluded from stable compares)."""
    import os
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "date": time.strftime("%Y-%m-%d"),  # simlint: disable=DET001  # simtaint: blessed=bench-report-date-stamp
    }


def bench_document(suite: SuiteResult) -> dict:
    """The canonical ``BENCH_<date>.json`` payload."""
    return {
        "schema": "repro-bench",
        "schemaVersion": SCHEMA_VERSION,
        "host": _host_fingerprint(),
        "run": {"seed": suite.seed, "scale": suite.scale,
                "repeats": suite.repeats, "warmup": suite.warmup},
        "benchmarks": {
            result.name: {
                "subsystem": result.subsystem,
                "unit": result.unit,
                "counters": dict(sorted(result.counters.items())),
                "stats": result.stats.as_dict(),
                "rate_per_s": result.rate_per_s,
            }
            for result in suite.results
        },
    }


def stable_view(document: dict) -> dict:
    """The document minus timing/host fields: two same-seed runs must
    agree on this part byte-for-byte."""
    view = {key: value for key, value in document.items()
            if key != "host"}
    view["benchmarks"] = {
        name: {key: value for key, value in bench.items()
               if key not in ("stats", "rate_per_s")}
        for name, bench in document.get("benchmarks", {}).items()}
    return view


def write_bench_file(path: str, document: dict) -> None:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline.

    Refuses a document with no benchmark entries: an empty baseline
    would make every later ``--compare`` pass vacuously.
    """
    if not document.get("benchmarks"):
        raise ValueError(
            f"refusing to write {path}: document has no benchmark "
            f"entries (an empty baseline compares as a pass)")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")


def render_suite_text(suite: SuiteResult,
                      cov_limit: float = DEFAULT_COV_LIMIT) -> str:
    """The human bench table (rates, medians, shape counters)."""
    lines = [
        f"repro bench — seed={suite.seed} scale={suite.scale} "
        f"repeats={suite.repeats} warmup={suite.warmup}",
        f"{'benchmark':<16s} {'rate':>10s} {'unit':<14s} "
        f"{'median':>10s} {'min':>10s} {'cov':>6s}  counters",
    ]
    for result in suite.results:
        stats = result.stats
        noisy = " (noisy)" if stats.cov > cov_limit else ""
        counters = " ".join(f"{key}={value}" for key, value
                            in sorted(result.counters.items()))
        lines.append(
            f"{result.name:<16s} "
            f"{result.rate_per_s:>10.0f} {result.unit + '/s':<14s} "
            f"{stats.median_s:>10.4f} {stats.min_s:>10.4f} "
            f"{stats.cov:>6.2f}{noisy}  {counters}")
    return "\n".join(lines)

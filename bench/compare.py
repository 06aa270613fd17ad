"""Compare two benchmark results under the benchmark's own bounds.

    python bench/compare.py A B

``A`` (the base) and ``B`` are each a ``result.json`` written by
``run.py``, or a directory of them (one per run of a set); with several
runs a side is represented by its median.  One row per (workload,
end-to-end metric): ``better`` or ``worse`` when B differs from A by
more than the bound ``BENCHMARK.json`` fixes for the metric,
``within-bound`` otherwise.  ``failed_share`` has an absolute bound of
zero.  Per-layer counts — exact for a seed — are compared for equality
between runs of the same seed; timings of single layers have no bound
and are not judged.  Exits 1 on any ``worse`` or ``different``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Units of per-layer metrics that are host timings; every other
#: per-layer metric is a count of the model and repeats exactly.
TIMING_UNITS = ("s", "us/event")


def is_timing(name: str, unit: str) -> bool:
    return unit in TIMING_UNITS or name.endswith("overhead_ratio")


def load_side(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"{path}: no result files")
    return [json.loads(file.read_text()) for file in files]


def _median(runs: list[dict], workload: str, metric: str):
    values = []
    for run in runs:
        result = run["workloads"].get(workload)
        if result is None:
            continue
        if metric == "failed_share":
            values.append(result["failed_share"])
        elif result.get("end_to_end"):
            values.append(result["end_to_end"][metric])
    return statistics.median(values) if values else None


def verdict(base: float, new: float, bound: float, better: str) -> str:
    """``bound`` is a share of ``base``; ``better`` is lower or higher."""
    worsening = (new - base) if better == "lower" else (base - new)
    if worsening > bound * abs(base):
        return "worse"
    if -worsening > bound * abs(base):
        return "better"
    return "within-bound"


def compare(base_runs: list[dict], new_runs: list[dict],
            benchmark: dict) -> tuple[list[tuple], list[tuple]]:
    """Rows for the end-to-end metrics, and rows for differing counts."""
    metrics = [(m["name"], m["bound"], m["better"])
               for m in benchmark["end_to_end"]]
    metrics.append(("failed_share", 0.0, "lower"))
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for name, bound, better in metrics:
            base = _median(base_runs, workload, name)
            new = _median(new_runs, workload, name)
            if base is None or new is None:
                continue
            rows.append((workload, name, base, new, bound,
                         verdict(base, new, bound, better)))

    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    base_layers = {(run["seed"], workload): result.get("layers")
                   for run in base_runs
                   for workload, result in run["workloads"].items()}
    counts = []
    for run in new_runs:
        for workload, result in run["workloads"].items():
            base = base_layers.get((run["seed"], workload))
            if not result.get("layers") or not base:
                continue
            counts.extend(
                (run["seed"], workload, name, base.get(name), value)
                for name, value in result["layers"].items()
                if not is_timing(name, units.get(name, "")))
    return rows, counts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, counts = compare(load_side(Path(argv[0])),
                           load_side(Path(argv[1])), benchmark)
    print(f"{'workload':<16s}{'metric':<20s}{'A':>14s}{'B':>14s}"
          f"{'change':>9s}{'bound':>8s}  verdict")
    for workload, name, base, new, bound, outcome in rows:
        change = (new - base) / base if base else 0.0
        print(f"{workload:<16s}{name:<20s}{base:14.6f}{new:14.6f}"
              f"{change:+9.1%}{bound:8.0%}  {outcome}")
    different = [row for row in counts if row[3] != row[4]]
    print(f"counts: {len(counts) - len(different)} of {len(counts)} equal "
          f"between runs of the same seed")
    for seed, workload, name, base, new in different:
        print(f"  different  seed {seed} {workload} {name}: {base} -> {new}")
    bad = different or [row for row in rows if row[5] == "worse"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

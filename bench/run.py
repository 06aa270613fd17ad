"""The repo's benchmark: regenerate the paper's artifacts and time it.

    python bench/run.py                      every workload, seed 0
    python bench/run.py --trace              ... plus the per-layer ledger
    python bench/run.py --workload grid_5050 --seed 3 --seconds 10 --trace 0

This is a host-time benchmark of a deterministic simulator: for one
seed the simulated statistics repeat exactly (and are checked), host
time is what moves.  Workloads run one after another, each in one fresh
child process (``child.py``).  Every metric is printed by name with its
unit, outputs are checked, and the whole result is written to
``bench/out/result.json``.  With a single ``--workload`` the last line
of standard output is the one-object JSON summary that
``BENCHMARK.json`` promises.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench import spans  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

#: Timed passes per run never drop below this (a median of fewer is a
#: single sample); ``--seconds`` adds passes on the short workloads.
MIN_PASSES = 3
#: A child that has not finished by now is killed and counted failed
#: (the driver allows a run 180 s).
CHILD_TIMEOUT_S = 170.0
#: The two spin timings around a child may differ by this share before
#: the workload is flagged ``noisy-host``.
NOISY_HOST = 0.10

END_TO_END = {
    "wall_us_per_event": "us/event",
    "cpu_us_per_event": "us/event",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: Per-layer metrics that do not come from a span boundary (the drill's
#: are 0 on the other workloads).
EXTRA_LAYERS = {
    "workloads.op_errors": "count",
    "workloads.retries": "count",
    "experiments.golden_mismatch_cells": "count",
    "obs.overhead_ratio": "ratio",
    "chaos.faults_applied": "count",
    "chaos.lost_commits": "count",
    "chaos.time_to_recover_sim_s": "sim-s",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    return {**spans.metric_names(), **EXTRA_LAYERS}


def spin_s() -> float:
    """A fixed pure-Python loop, timed: the host-noise probe."""
    started = time.perf_counter()
    total = 0
    for value in range(5_000_000):
        total += value & 7
    return time.perf_counter() - started


def host_info() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def run_child(name: str, seed: int, seconds: float, min_passes: int,
              trace: int, smoke: bool) -> dict:
    """One workload in one fresh process, bracketed by the spin probe."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in [environment.get("PYTHONPATH")] if p])
    # The digests must not depend on it (a test checks that); pinning
    # it keeps dict-order-dependent *timing* the same run to run.
    environment["PYTHONHASHSEED"] = "0"
    command = [sys.executable, "-m", "bench.child",
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--min-passes", str(min_passes),
               "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    spin_before = spin_s()
    command += ["--started-at", repr(time.time())]
    try:
        done = subprocess.run(command, cwd=ROOT, env=environment,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        problem = None if done.returncode == 0 else (
            f"child exited {done.returncode}\n{done.stderr[-2000:]}")
        lines = done.stdout.strip().splitlines()
    except subprocess.TimeoutExpired:
        problem = f"child killed after {CHILD_TIMEOUT_S:.0f} s"
        lines = []
    spin_after = spin_s()
    if problem is None:
        result = json.loads(lines[-1])
    else:
        result = {"workload": name, "seed": seed, "smoke": smoke,
                  "attempted": 1, "failed": 1, "failures": [problem],
                  "cells": {}, "layers": None}
    result["host.spin_s"] = [spin_before, spin_after]
    result["noisy-host"] = (abs(spin_after - spin_before)
                            > NOISY_HOST * min(spin_before, spin_after))
    return result


def end_to_end(result: dict) -> dict[str, float]:
    """The fastest timed pass, per simulated kernel event.

    Per event, because a pass holds as much simulation as the seed's
    hardware lottery lets the closed-loop users drive (the event count
    swings 10 % between seeds), so seconds per pass are comparable for
    one seed only.  The fastest pass, because the program is
    deterministic and single-threaded and the shared host only ever
    adds time: over ten seeds the minimum spread 3-6 % (first to third
    quartile over median) where the median of the passes spread 4-9 %.
    """
    events = result["events_per_pass"]
    return {
        "wall_us_per_event": min(result["wall_s"]) * 1e6 / events,
        "cpu_us_per_event": min(result["cpu_s"]) * 1e6 / events,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": result["setup_s"],
    }


def golden_cells(golden: dict, seed: int, name: str, smoke: bool):
    if smoke:
        return None
    return golden.get("seeds", {}).get(str(seed), {}).get(name)


def judge(result: dict, recorded: dict | None,
          units: dict[str, str]) -> None:
    """Add the derived fields: metrics, failed share, golden verdict."""
    mismatches = [] if recorded is None else sorted(
        cell for cell, found in result["cells"].items()
        if recorded.get(cell, {}).get("digest") != found["digest"])
    result["golden_mismatches"] = mismatches
    result["failed_share"] = result["failed"] / result["attempted"]
    result["end_to_end"] = (end_to_end(result)
                            if "wall_s" in result else None)
    if result["layers"] is not None:
        result["layers"]["experiments.golden_mismatch_cells"] = \
            len(mismatches)
        result["layers"] = {name: result["layers"].get(name, 0)
                            for name in units}


def _row(metric: str, value: float, unit: str, note: str = "") -> str:
    shown = f"{value:14.0f}" if float(value).is_integer() \
        else f"{value:14.6f}"
    return f"  {metric:<42s}{shown} {unit}{note}"


def report(result: dict, units: dict[str, str]) -> None:
    name = result["workload"]
    print(f"== {name}  seed {result['seed']}"
          f"{'  (smoke size)' if result['smoke'] else ''}")
    if result["end_to_end"] is not None:
        passes = len(result["wall_s"])
        print(f"  {passes} timed passes of "
              f"{result['events_per_pass']} kernel events each; per-event "
              f"timings are the fastest of the {passes}")
        for metric in ("wall_s", "cpu_s"):
            print(_row(metric, min(result[metric]), "s",
                       f"   (fastest pass; median "
                       f"{statistics.median(result[metric]):.6f} s)"))
        for metric, value in result["end_to_end"].items():
            print(_row(metric, value, END_TO_END[metric]))
    print(_row("failed_share", result["failed_share"], "ratio",
               f"   ({result['failed']} of {result['attempted']} cells)"))
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if result["golden_mismatches"]:
        print(f"  GOLDEN MISMATCH in {len(result['golden_mismatches'])} "
              f"cell(s): {', '.join(result['golden_mismatches'])} -- the "
              f"model's output changed (rerun with --update-golden if "
              f"that was intended)")
    before, after = result["host.spin_s"]
    print(_row("host.spin_s", before, "s", f"   (after: {after:.6f} s)"
               f"{'   noisy-host' if result['noisy-host'] else ''}"))
    if result["layers"] is not None:
        print("  -- per layer (traced pass)")
        for metric, unit in units.items():
            print(_row(metric, result["layers"][metric], unit))


def summary_line(result: dict, trace: int, units: dict[str, str]) -> str:
    """The one-object summary ``BENCHMARK.json`` describes."""
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"],
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="keep timing passes for at least this long "
                             f"(and at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="add the traced pass and print per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny cell per workload, one timed pass")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this seed's digests and simulated "
                             "statistics in golden.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.update_golden and args.smoke:
        parser.error("golden.json records full-size runs only")

    names = [args.workload] if args.workload else list(WORKLOADS)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    units = per_layer_units()
    # A run whose end-to-end numbers are thrown away (the driver's
    # --trace 1) needs the untraced time only as the overhead base.
    only_layers = bool(args.trace and args.workload)
    min_passes = 1 if args.smoke or only_layers else MIN_PASSES
    seconds = 0.0 if args.smoke or only_layers else args.seconds

    spin_s()    # the first call in a process runs slow; discard it
    results = []
    for name in names:
        result = run_child(name, args.seed, seconds, min_passes,
                           args.trace, args.smoke)
        judge(result, golden_cells(golden, args.seed, name, args.smoke),
              units)
        report(result, units)
        results.append(result)

    OUT.mkdir(exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(
        {"host": host_info(), "seed": args.seed, "smoke": args.smoke,
         "workloads": {r["workload"]: r for r in results}},
        indent=1, sort_keys=True) + "\n")
    failed = sum(r["failed"] for r in results)
    if args.update_golden and failed == 0:
        golden.setdefault("seeds", {}).setdefault(str(args.seed), {}).update(
            {r["workload"]: r["cells"] for r in results})
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")
        print(f"golden.json updated for seed {args.seed}")
    if args.workload and results[0][
            "layers" if args.trace else "end_to_end"] is not None:
        print(summary_line(results[0], args.trace, units))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

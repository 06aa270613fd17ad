"""One workload, measured in one fresh process.

``run.py`` starts this once per workload (``python -m bench.child``)
so that ``peak_rss_mb`` is per workload and at most one busy process
exists at a time.  The child imports ``repro``, builds its inputs from
the seed, runs one untimed cold pass, then timed passes until both the
pass floor and ``--seconds`` are met, and — with ``--trace 1`` — one
more pass with the boundary wrappers of ``spans.py`` installed.  It
prints one JSON document as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, NamedTuple

from bench import spans
from bench.workloads import WORKLOADS, Cell, Workload

OUT = Path(__file__).resolve().parent / "out"


def _cpu_seconds() -> float:
    """User+system CPU of this process and its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


class Ledger:
    """Cells attempted and failed over every pass of this process."""

    def __init__(self):
        self.first: dict[str, Cell] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.expected_cells = 1

    def record(self, label: str, cells: list[Cell] | None,
               error: str | None) -> None:
        if cells is None:
            # The pass raised: every cell it would have produced failed.
            self.attempted += self.expected_cells
            self.failed += self.expected_cells
            self.failures.append(f"{label}: pass raised\n{error}")
            return
        self.expected_cells = len(cells)
        for cell in cells:
            first = self.first.setdefault(cell.id, cell)
            if cell.digest != first.digest:
                cell.failures.append(
                    f"digest {cell.digest[:12]} differs from the first "
                    f"pass's {first.digest[:12]}")
            self.attempted += 1
            if cell.failures:
                self.failed += 1
                self.failures.extend(f"{label}: {cell.id}: {failure}"
                                     for failure in cell.failures)


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float
    raw: Any                # what the workload returned (None if it raised)
    ended_at: float         # time.time() when the pass finished


def _one_pass(workload: Workload, inputs, ledger: Ledger,
              label: str) -> Pass:
    """Run and time one pass; cells and checks happen after the clock
    stops."""
    gc.collect()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    try:
        raw = workload.run(inputs)
        error = None
    except Exception:
        raw = None
        error = traceback.format_exc()
    wall_s = time.perf_counter() - started
    ended_at = time.time()
    cpu_s = _cpu_seconds() - cpu_before
    cells = None if error else workload.cells(inputs, raw)
    ledger.record(label, cells, error)
    return Pass(wall_s, cpu_s, raw, ended_at)


def _count_events(workload: Workload, inputs, ledger: Ledger):
    """The cold pass, with kernel events counted.

    The closed-loop users complete fewer operations on a slower
    simulated cluster, so how much simulation a pass holds depends on
    the seed's hardware lottery; timings are reported per event to
    stay comparable across seeds.  Only this untimed pass carries the
    counter, so the timed passes run the program untouched.
    """
    from repro.sim.kernel import Simulator
    recorder = spans.Recorder()
    patches = spans.Patches()
    patches.attribute(Simulator, "step",
                      lambda fn: recorder.counter("events", fn))
    try:
        cold = _one_pass(workload, inputs, ledger, "cold pass")
    finally:
        patches.restore()
    return int(recorder.counts["events"]), cold.ended_at


def _traced_pass(workload: Workload, inputs, ledger: Ledger):
    """One pass under the boundary wrappers: (pass, per-layer metrics)."""
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        traced = _one_pass(workload, inputs, ledger, "traced pass")
    finally:
        patches.restore()
    layers = spans.aggregate(recorder, traced.wall_s)
    OUT.mkdir(parents=True, exist_ok=True)
    spans.write_jsonl(recorder, OUT / f"spans_{workload.name}.jsonl")
    return traced, layers


def _drill_layers(inputs, report, timed_wall_s: float) -> dict:
    """Model counts off the drill report, and what observing costs:
    the same drill with ``slo=None``, timed untraced like the others."""
    from repro.chaos import run_drill
    failover = report["failover"] or {}
    gc.collect()
    started = time.perf_counter()
    run_drill(inputs["config"])
    unobserved_s = time.perf_counter() - started
    return {
        "workloads.op_errors": report["driver"]["errors"],
        "workloads.retries": report["driver"]["retries"],
        "chaos.faults_applied": report["schedule"]["faults"],
        "chaos.lost_commits": failover.get("lost_commits", 0),
        "chaos.time_to_recover_sim_s":
            failover.get("time_to_recover_s", 0.0),
        "obs.overhead_ratio": timed_wall_s / unobserved_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--started-at", type=float, required=True,
                        help="time.time() in the parent just before it "
                             "started this process")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ledger = Ledger()
    inputs = workload.build(args.seed, args.smoke)
    events, ready_at = _count_events(workload, inputs, ledger)
    setup_s = ready_at - args.started_at

    walls: list[float] = []
    cpus: list[float] = []
    measured_from = time.perf_counter()
    while len(walls) < args.min_passes \
            or time.perf_counter() - measured_from < args.seconds:
        timed = _one_pass(workload, inputs, ledger,
                          f"timed pass {len(walls) + 1}")
        walls.append(timed.wall_s)
        cpus.append(timed.cpu_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if args.trace:
        traced, layers = _traced_pass(workload, inputs, ledger)
        untraced_s = statistics.median(walls)
        layers["trace.overhead_ratio"] = traced.wall_s / untraced_s
        # Metrics only the drill has; the parent reports them as 0 for
        # the other workloads.
        if workload.name == "drill_observed" and traced.raw is not None:
            layers.update(_drill_layers(inputs, traced.raw, untraced_s))

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "events_per_pass": events,
        "wall_s": walls,
        "cpu_s": cpus,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "cells": {cell.id: {"digest": cell.digest, "stats": cell.stats}
                  for cell in ledger.first.values()},
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

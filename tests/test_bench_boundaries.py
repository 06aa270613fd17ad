"""The benchmark's boundaries exist, and a traced cell crosses them.

``bench/spans.py`` wraps layer boundaries by name from outside the
program (``owner.__dict__[name]``).  Renaming one, or a
``Simulator.run`` that stops calling ``step`` once per event, would
otherwise only show when the benchmark runs: here it fails tier-1.
"""

import sys
import types

from bench import spans
from bench.workloads import WORKLOADS


def wrappers_left() -> list[str]:
    """Every ``repro`` module function or class attribute that is
    still a benchmark wrapper."""
    left = []
    for module in list(sys.modules.values()):
        if module is None or module.__name__.partition(".")[0] != "repro":
            continue
        for name, value in list(vars(module).items()):
            members = vars(value).items() if isinstance(value, type) \
                else [(name, value)]
            left.extend(f"{module.__name__}.{name}.{member}"
                        for member, fn in members
                        if isinstance(fn, types.FunctionType)
                        and fn.__dict__.get("__bench_wrapper__"))
    return left


def traced_smoke_pass(name: str):
    """One smoke pass of workload ``name`` with every boundary wrapped:
    ``(workload, inputs, raw output, per-layer counts)``."""
    workload = WORKLOADS[name]
    inputs = workload.build(0, True)
    recorder = spans.Recorder()
    patches = spans.install(recorder)
    try:
        assert wrappers_left()
        raw = workload.run(inputs)
    finally:
        patches.restore()
    assert wrappers_left() == []
    metrics = spans.aggregate(recorder, pass_wall_s=0.0)  # counts only
    return workload, inputs, raw, metrics


def test_a_traced_bootstrap_cell_crosses_every_boundary_it_measures():
    workload, inputs, raw, metrics = traced_smoke_pass("bootstrap")
    for name in ("sim.step.calls", "db.binlog_append.calls",
                 "db.binlog_append.bytes", "sql.prepare.calls",
                 "db.snapshot.calls", "db.restore.calls"):
        assert metrics[name] > 0, name
    assert metrics["experiments.cells"] == 1
    assert [cell.failures for cell in workload.cells(inputs, raw)] == [[]]


def test_a_traced_clock_net_pass_crosses_every_boundary_it_measures():
    workload, inputs, raw, metrics = traced_smoke_pass("clock_net")
    for name in ("sim.step.calls", "cloud.ping.calls",
                 "cloud.clock_step.calls", "cloud.draw_hardware.calls"):
        assert metrics[name] > 0, name
    assert metrics["experiments.figure.calls"] == 3
    assert [cell.failures for cell in workload.cells(inputs, raw)] \
        == [[], [], []]

"""Boundary spans, recorded from outside the program.

The traced pass wraps the public function at each layer boundary of
``repro`` (class attributes, and module functions together with every
by-name import of them) and records one span per call: name, start,
end, the span that was open when it started, and the cell it belongs
to.  Nothing under ``src/`` knows about this; :func:`install` puts the
wrappers in and :meth:`Patches.restore` takes every one out again.

Everything wrapped is a plain function on one thread, so spans nest
strictly and a span's *self time* is its duration minus the durations
of its direct children.  Generator bodies (``proxy.execute``, the user
loop, dump and SQL threads) run between the kernel's callbacks and
cannot be bracketed from outside: their time is ``sim.run``'s self
time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

__all__ = ["Recorder", "Patches", "install", "aggregate", "metric_names"]

#: Index of each field in a span record (a list, for cheap creation).
NAME, START, END, PARENT, CELL = range(5)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: Plan caches seen by the ``sql.prepare`` wrapper, by id; kept
        #: alive so an id is never reused within the pass.
        self.plan_caches: dict[int, object] = {}
        self.cell = None
        self._stack: list[int] = []

    def span(self, name, fn, after=None, cell=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``after(counts, args, result)`` runs once the span has ended
        (so its cost lands on the parent, not on ``name``) when the
        call returned; a raising call bumps ``<name>.errors`` instead.
        ``cell(*args, **kwargs)`` names the cell a root span opens.
        """
        spans, stack, clock, counts = (self.spans, self._stack, self.clock,
                                       self.counts)
        errors = name + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cell is not None:
                self.cell = cell(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[END] = clock()
                counts[errors] += 1
                raise
            else:
                record[END] = clock()
            finally:
                stack.pop()
                if cell is not None:
                    self.cell = None
            if after is not None:
                after(counts, args, result)
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` to count calls only (for boundaries crossed too
        often to afford two clock reads each)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_wrapper__ = True
        return wrapper


class Patches:
    """The set of wrappers currently installed, and how to undo them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def attribute(self, owner, name, make) -> None:
        """Replace ``owner.name`` (a class attribute) by ``make(it)``."""
        original = owner.__dict__[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def function(self, module_name, name, make) -> None:
        """Replace a module-level function in its defining module and in
        every loaded ``repro`` module that imported it by name."""
        original = getattr(sys.modules[module_name], name)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            if module is None \
                    or not module.__name__.partition(".")[0] == "repro":
                continue
            if module.__dict__.get(name) is original:
                self._undo.append((module, name, original))
                setattr(module, name, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ----------------------------------------------------------------- install
def _execute_profile(counts, args, result):
    profile = result.profile
    counts["db.execute.rows_examined"] += profile.rows_examined
    counts["db.execute.rows_returned"] += profile.rows_returned
    counts["db.execute.rows_affected"] += profile.rows_affected


def _binlog_bytes(counts, args, event):
    counts["db.binlog_append.bytes"] += event.size_bytes


def install(recorder: Recorder) -> Patches:
    """Wrap every layer boundary; the caller restores in ``finally``.

    Import everything first: a module imported after this would bind
    the wrappers by name and keep them past :meth:`Patches.restore`.
    """
    for importer in ("repro.chaos.drill", "repro.experiments.figures",
                     "repro.experiments.sweeps", "repro.obs.live",
                     "repro.replication.failover"):
        importlib.import_module(importer)
    from repro.cloud.clock import LocalClock
    from repro.cloud.network import Network
    from repro.cloud.provisioner import Cloud
    from repro.db.binlog import Binlog
    from repro.db.engine import StorageEngine
    from repro.obs.live import AlertEngine, LivePipeline
    from repro.obs.session import Observability
    from repro.obs.tracer import Tracer
    from repro.replication.cost import CostModel
    from repro.replication.manager import ReplicationManager
    from repro.replication.messages import OrderedChannel
    from repro.replication.proxy import ReadWriteSplitProxy
    from repro.replication.slave import SlaveServer
    from repro.sim.kernel import Simulator
    from repro.sql.plancache import PlanCache
    from repro.workloads.cloudstone.mix import OperationMix

    span, counter = recorder.span, recorder.counter
    patches = Patches()

    def spanned(name, **hooks):
        return lambda fn: span(name, fn, **hooks)

    def counted(name):
        return lambda fn: counter(name, fn)

    def sim_run(fn):
        inner = span("sim.run", fn)

        @functools.wraps(fn)
        def run(self, until=None):
            before = self.now
            try:
                return inner(self, until)
            finally:
                recorder.counts["experiments.sim_seconds"] \
                    += self.now - before

        run.__bench_wrapper__ = True
        return run

    def remember_cache(counts, args, result):
        recorder.plan_caches[id(args[0])] = args[0]

    try:
        for owner, name, make in (
            (Simulator, "run", sim_run),
            (Simulator, "step", counted("sim.step.calls")),
            (Network, "send", spanned("cloud.net_send")),
            (Network, "ping", spanned("cloud.ping")),
            (LocalClock, "step_to_error", counted("cloud.clock_step.calls")),
            (Cloud, "launch", spanned("cloud.launch")),
            (PlanCache, "prepare",
             spanned("sql.prepare", after=remember_cache)),
            (StorageEngine, "execute",
             spanned("db.execute", after=_execute_profile)),
            (StorageEngine, "snapshot", spanned("db.snapshot")),
            (StorageEngine, "restore", spanned("db.restore")),
            (Binlog, "append",
             spanned("db.binlog_append", after=_binlog_bytes)),
            (Binlog, "read_from", spanned("db.binlog_read")),
            (ReplicationManager, "create_master",
             spanned("replication.create_master")),
            (ReplicationManager, "add_slave",
             spanned("replication.add_slave")),
            (OrderedChannel, "send", spanned("replication.channel_send")),
            (SlaveServer, "receive_event", spanned("replication.receive")),
            (ReadWriteSplitProxy, "route", spanned("replication.route")),
            (ReadWriteSplitProxy, "pick_read_server",
             spanned("replication.route")),
            (CostModel, "apply_work_for",
             counted("replication.events_applied")),
            (CostModel, "row_apply_work",
             counted("replication.events_applied")),
            (OperationMix, "pick", spanned("workloads.pick")),
            (Tracer, "span", spanned("obs.span")),
            (Tracer, "open_span", spanned("obs.span")),
            (Tracer, "instant", spanned("obs.span")),
            (LivePipeline, "publish", spanned("obs.live_publish")),
            (AlertEngine, "evaluate", spanned("obs.alert_eval")),
            (Observability, "finalize", spanned("obs.finalize")),
        ):
            patches.attribute(owner, name, make)
        for module_name, name, make in (
            ("repro.cloud.instance", "draw_instance_hardware",
             spanned("cloud.draw_hardware")),
            ("repro.replication.manager", "resync_slave_from",
             spanned("replication.resync")),
            ("repro.replication.heartbeat", "collect_delays",
             spanned("replication.collect_delays")),
            ("repro.workloads.cloudstone.loader", "load_initial_data",
             spanned("workloads.load")),
            ("repro.experiments.runner", "run_experiment",
             spanned("experiments.run_experiment",
                     cell=lambda config, *a, **k: config.label)),
            ("repro.chaos.drill", "run_drill",
             spanned("chaos.run_drill",
                     cell=lambda config, *a, **k: f"drill seed={config.seed}"
                     f"{'' if k.get('slo') is not None else ' unobserved'}")),
            ("repro.experiments.figures", "run_fig4_clock_sync",
             spanned("experiments.figure", cell=lambda *a, **k: "fig4")),
            ("repro.experiments.figures", "run_rtt_characterization",
             spanned("experiments.figure", cell=lambda *a, **k: "rtt")),
            ("repro.experiments.figures", "run_instance_variation",
             spanned("experiments.figure",
                     cell=lambda *a, **k: "instance_variation")),
        ):
            patches.function(module_name, name, make)
    except BaseException:
        patches.restore()
        raise
    return patches


# --------------------------------------------------------------- aggregate
#: Boundaries and which of calls / total_s / self_s each reports.
_SPANNED = {
    "sim.run": ("calls", "total_s", "self_s"),
    "cloud.net_send": ("calls", "self_s"),
    "cloud.ping": ("calls", "self_s"),
    "cloud.launch": ("calls", "self_s"),
    "cloud.draw_hardware": ("calls", "self_s"),
    "sql.prepare": ("calls", "self_s"),
    "db.execute": ("calls", "total_s", "self_s"),
    "db.snapshot": ("calls", "self_s"),
    "db.restore": ("calls", "self_s"),
    "db.binlog_append": ("calls", "self_s"),
    "db.binlog_read": ("calls", "self_s"),
    "replication.create_master": ("calls", "self_s"),
    "replication.add_slave": ("calls", "total_s", "self_s"),
    "replication.resync": ("calls", "total_s", "self_s"),
    "replication.channel_send": ("calls", "self_s"),
    "replication.receive": ("calls", "self_s"),
    "replication.route": ("calls", "self_s"),
    "replication.collect_delays": ("calls", "self_s"),
    "workloads.load": ("calls", "total_s", "self_s"),
    "workloads.pick": ("calls", "self_s"),
    "experiments.run_experiment": ("calls", "self_s"),
    "experiments.figure": ("calls", "self_s"),
    "obs.span": ("calls", "self_s"),
    "obs.live_publish": ("calls", "self_s"),
    "obs.alert_eval": ("calls", "self_s"),
    "obs.finalize": ("self_s",),
    "chaos.run_drill": ("calls", "self_s"),
}

#: Counters (reported even when nothing bumped them), with their units.
_COUNTED = {
    "sim.step.calls": "count",
    "cloud.clock_step.calls": "count",
    "db.execute.errors": "count",
    "db.execute.rows_examined": "rows",
    "db.execute.rows_returned": "rows",
    "db.execute.rows_affected": "rows",
    "db.binlog_append.bytes": "bytes",
    "replication.events_applied": "count",
    "experiments.sim_seconds": "sim-s",
}

#: Metrics derived from the above in :func:`aggregate`.
_DERIVED = {
    "sim.self_us_per_event": "us/event",
    "sql.plancache.hits": "count",
    "sql.plancache.misses": "count",
    "sql.plancache.hit_ratio": "ratio",
    "db.execute.examined_per_returned": "ratio",
    "replication.bytes_per_commit": "bytes/commit",
    "experiments.cells": "count",
    "trace.unspanned_s": "s",
}

_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def metric_names() -> dict[str, str]:
    """Every metric :func:`aggregate` reports, with its unit."""
    names = {f"{boundary}.{field}": _UNITS[field]
             for boundary, fields in _SPANNED.items() for field in fields}
    return {**names, **_COUNTED, **_DERIVED}


def self_times(spans) -> list[float]:
    """Self time per span: duration minus its direct children's."""
    own = [record[END] - record[START] for record in spans]
    for index, record in enumerate(spans):
        if record[PARENT] >= 0:
            own[record[PARENT]] -= record[END] - record[START]
    return own


def aggregate(recorder: Recorder, pass_wall_s: float) -> dict[str, float]:
    """Fold the recorded spans and counters into the per-layer metrics.

    A call re-entering its own boundary (``StorageEngine.execute``
    with ``database=`` calls itself) is one call and one stretch of
    total time; only its self time is summed over both spans.
    """
    spans = recorder.spans
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own_s: dict[str, float] = defaultdict(float)
    roots = 0
    spanned_s = 0.0
    for record, own in zip(spans, self_times(spans)):
        name = record[NAME]
        own_s[name] += own
        parent = record[PARENT]
        if parent < 0:
            spanned_s += record[END] - record[START]
            if record[CELL] is not None:
                roots += 1
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            calls[name] += 1
            total[name] += record[END] - record[START]

    metrics: dict[str, float] = {}
    for boundary, fields in _SPANNED.items():
        values = {"calls": calls[boundary], "total_s": total[boundary],
                  "self_s": own_s[boundary]}
        for field in fields:
            metrics[f"{boundary}.{field}"] = values[field]
    counts = recorder.counts
    for name in _COUNTED:
        metrics[name] = counts[name]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    hits = sum(cache.hits for cache in recorder.plan_caches.values())
    misses = sum(cache.misses for cache in recorder.plan_caches.values())
    metrics["sim.self_us_per_event"] = ratio(
        own_s["sim.run"] * 1e6, counts["sim.step.calls"])
    metrics["sql.plancache.hits"] = hits
    metrics["sql.plancache.misses"] = misses
    metrics["sql.plancache.hit_ratio"] = ratio(hits, hits + misses)
    metrics["db.execute.examined_per_returned"] = ratio(
        counts["db.execute.rows_examined"],
        counts["db.execute.rows_returned"])
    metrics["replication.bytes_per_commit"] = ratio(
        counts["db.binlog_append.bytes"], calls["db.binlog_append"])
    metrics["experiments.cells"] = roots
    metrics["trace.unspanned_s"] = pass_wall_s - spanned_s
    return metrics


def write_jsonl(recorder: Recorder, path) -> None:
    """One span per line: ``[name, start, end, parent, cell]``."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in recorder.spans:
            handle.write(json.dumps(record))
            handle.write("\n")

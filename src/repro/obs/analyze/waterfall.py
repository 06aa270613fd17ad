"""Staleness waterfalls: decompose each replication event's delay.

For every binlog event that completed the full pipeline on a slave we
know four instants from the stage spans (which telescope by
construction — PR 3's instrumentation asserts ``ship.end ==
relay.start`` and ``relay.end == apply.start``):

====================  ====================================================
``binlog_time``       ``repl.binlog`` instant — commit appended the event
``ship_start``        the master's dump thread put it on the wire
``ship_end``          the slave's IO thread received it (= relay start)
``relay_end``         the SQL thread popped it (= apply start)
``apply_end``         the statement finished re-executing
====================  ====================================================

giving the per-event decomposition the paper's Figs. 5/6 narrative
talks around but never plots::

    staleness = binlog_wait + ship + relay_wait + apply

``binlog_wait`` (commit → dump pickup) is structurally ~0 in this
simulator — the dump thread wakes at commit time and shipping has no
CPU cost — but the stage is kept explicit so the identity telescopes
and a future costed dump thread shows up where it belongs.

Heartbeat reconciliation: restricted to the heartbeat population
(``repl.heartbeat`` instants mark their binlog positions), censored
the same way, windowed the same way and trimmed the same 5 %, the
waterfall's loaded-minus-baseline staleness must agree with the
heartbeat estimator's measured relative delay up to NTP clock wobble —
Fig. 4's sync-every-second policy keeps local clocks within a
millisecond band of true time, so the documented tolerance is a few
milliseconds plus a small relative term (see
:data:`RECONCILE_ABS_TOLERANCE_MS`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .loader import AnalysisError, TraceData

__all__ = ["EventWaterfall", "StageStats", "PhaseWindows", "STAGES",
           "phase_windows", "build_waterfalls", "aggregate_stages",
           "telescoping_error", "HeartbeatReconciliation",
           "reconcile_heartbeats", "trimmed_mean_of",
           "RECONCILE_ABS_TOLERANCE_MS", "RECONCILE_REL_TOLERANCE"]

#: Stage names, pipeline order.
STAGES = ("binlog_wait", "ship", "relay_wait", "apply")

#: Documented reconciliation tolerance: the estimator reads NTP-synced
#: *local clocks* (Fig. 4: a 1–8 ms wobble band under sync-every-
#: second), the waterfall reads the simulated true clock; baseline
#: subtraction cancels the mean skew but not its wander, and the
#: USEC_NOW() evaluation points sit inside (not at the edges of) the
#: spans.  |waterfall − estimator| ≤ ABS + REL·estimator.
RECONCILE_ABS_TOLERANCE_MS = 5.0
RECONCILE_REL_TOLERANCE = 0.15


@dataclass(frozen=True)
class EventWaterfall:
    """One replication event's staleness decomposition on one slave."""

    position: int
    slave: str
    binlog_time: float
    ship_start: float
    ship_end: float
    relay_end: float
    apply_end: float

    @property
    def binlog_wait(self) -> float:
        return self.ship_start - self.binlog_time

    @property
    def ship(self) -> float:
        return self.ship_end - self.ship_start

    @property
    def relay_wait(self) -> float:
        return self.relay_end - self.ship_end

    @property
    def apply(self) -> float:
        return self.apply_end - self.relay_end

    @property
    def staleness(self) -> float:
        """Commit-to-applied delay, seconds (what the paper measures)."""
        return self.apply_end - self.binlog_time

    def stage(self, name: str) -> float:
        return getattr(self, name)


@dataclass(frozen=True)
class StageStats:
    """Per-cell aggregate of one stage (or of total staleness)."""

    count: int
    mean: float
    p50: float
    p95: float
    max: float

    def as_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean,
                "p50": self.p50, "p95": self.p95, "max": self.max}


@dataclass(frozen=True)
class PhaseWindows:
    """The run's measurement windows, recovered from the phase spans."""

    baseline_start: float
    baseline_end: float
    workload_start: float
    steady_start: float
    steady_end: float


def phase_windows(data: TraceData) -> PhaseWindows:
    baseline = data.spans_named("phase.baseline")
    workload = data.spans_named("phase.workload")
    if not baseline or not workload:
        raise AnalysisError(
            "phase.baseline/phase.workload spans missing — artifacts "
            "predate the analysis plane; re-record with repro cell --out")
    attrs = workload[0].get("attrs", {})
    for key in ("workload_start", "steady_start", "steady_end"):
        if key not in attrs:
            raise AnalysisError(
                f"phase.workload span lacks the {key!r} attribute — "
                f"re-record with repro cell --out")
    return PhaseWindows(
        baseline_start=baseline[0]["start"],
        baseline_end=baseline[0]["end"],
        workload_start=attrs["workload_start"],
        steady_start=attrs["steady_start"],
        steady_end=attrs["steady_end"])


def build_waterfalls(data: TraceData) -> dict[str, list[EventWaterfall]]:
    """Per-slave waterfalls for every fully-traced replication event.

    Events without all three stage spans on a slave (e.g. data-load
    events that predate slave attachment, or events still in flight at
    the end of the run) are skipped — they have no completed delay to
    decompose.  Slave names come from the ``repl:<slave>`` track.
    """
    binlog_time: dict[int, float] = {}
    for span in data.spans_named("repl.binlog"):
        position = span["attrs"]["position"]
        binlog_time.setdefault(position, span["start"])
    stages: dict[tuple[str, int], dict[str, dict]] = {}
    for name in ("repl.ship", "repl.relay", "repl.apply"):
        for span in data.spans_named(name):
            if span.get("attrs", {}).get("dropped"):
                continue
            key = (span["track"], span["attrs"]["position"])
            stages.setdefault(key, {})[name] = span
    waterfalls: dict[str, list[EventWaterfall]] = {}
    for (track, position), spans in sorted(stages.items()):
        if len(spans) != 3 or position not in binlog_time:
            continue
        slave = track.split(":", 1)[1] if ":" in track else track
        waterfalls.setdefault(slave, []).append(EventWaterfall(
            position=position,
            slave=slave,
            binlog_time=binlog_time[position],
            ship_start=spans["repl.ship"]["start"],
            ship_end=spans["repl.ship"]["end"],
            relay_end=spans["repl.relay"]["end"],
            apply_end=spans["repl.apply"]["end"]))
    return waterfalls


def telescoping_error(waterfall: EventWaterfall) -> float:
    """|sum of post-commit stages − (apply_end − ship_start)|.

    Exactly zero in real arithmetic; float summation of the three
    telescoping differences can leave one ulp.
    """
    total = waterfall.ship + waterfall.relay_wait + waterfall.apply
    return abs(total - (waterfall.apply_end - waterfall.ship_start))


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def _stats(values: list[float]) -> StageStats:
    ordered = sorted(values)
    return StageStats(count=len(ordered),
                      mean=sum(ordered) / len(ordered),
                      p50=_percentile(ordered, 0.50),
                      p95=_percentile(ordered, 0.95),
                      max=ordered[-1])


def aggregate_stages(waterfalls: list[EventWaterfall]
                     ) -> dict[str, StageStats]:
    """Per-stage aggregates plus the total ``staleness`` row."""
    if not waterfalls:
        raise AnalysisError("no fully-traced replication events — "
                            "nothing to aggregate")
    aggregates = {stage: _stats([w.stage(stage) for w in waterfalls])
                  for stage in STAGES}
    aggregates["staleness"] = _stats([w.staleness for w in waterfalls])
    return aggregates


def trimmed_mean_of(values: list[float], trim: float = 0.05) -> float:
    """5 %-per-end trimmed mean — the estimator's exact recipe
    (re-implemented here so the analyzer stays import-free of the
    simulation stack)."""
    if not values:
        raise AnalysisError("trimmed mean of an empty window")
    ordered = sorted(values)
    drop = int(len(ordered) * trim)
    kept = ordered[drop:len(ordered) - drop] or ordered
    return sum(kept) / len(kept)


@dataclass(frozen=True)
class HeartbeatReconciliation:
    """Waterfall staleness vs. the heartbeat estimator, one slave."""

    slave: str
    loaded: int                      # steady-window heartbeats applied
    baseline: int                    # baseline-window heartbeats applied
    censored: int                    # steady-window heartbeats unapplied
    waterfall_relative_ms: Optional[float]
    estimator_relative_ms: Optional[float]

    @property
    def discrepancy_ms(self) -> Optional[float]:
        if self.waterfall_relative_ms is None or \
                self.estimator_relative_ms is None:
            return None
        return self.waterfall_relative_ms - self.estimator_relative_ms

    @property
    def within_tolerance(self) -> Optional[bool]:
        gap = self.discrepancy_ms
        if gap is None:
            return None
        bound = RECONCILE_ABS_TOLERANCE_MS + RECONCILE_REL_TOLERANCE * \
            abs(self.estimator_relative_ms)
        return abs(gap) <= bound

    def as_dict(self) -> dict:
        return {"loaded": self.loaded, "baseline": self.baseline,
                "censored": self.censored,
                "waterfall_relative_ms": self.waterfall_relative_ms,
                "estimator_relative_ms": self.estimator_relative_ms,
                "discrepancy_ms": self.discrepancy_ms,
                "within_tolerance": self.within_tolerance}


def reconcile_heartbeats(data: TraceData, slave: str,
                         waterfalls: list[EventWaterfall],
                         windows: PhaseWindows
                         ) -> HeartbeatReconciliation:
    """Mirror the estimator on the heartbeat population, in sim time.

    Same population (heartbeats only), same censoring (unapplied
    heartbeats excluded), same windows (insert time in the baseline
    resp. steady window) and the same 5 % trim — the only differences
    left are the local-clock wobble and USEC_NOW() evaluation offsets
    the documented tolerance covers.
    """
    hb_position: dict[int, float] = {}
    for span in data.spans_named("repl.heartbeat"):
        attrs = span["attrs"]
        hb_position[attrs["position"]] = attrs["inserted"]
    staleness_at = {w.position: w.staleness for w in waterfalls}
    loaded: list[float] = []
    baseline: list[float] = []
    censored = 0
    for position, inserted in sorted(hb_position.items()):
        applied = staleness_at.get(position)
        in_steady = windows.steady_start <= inserted < windows.steady_end
        in_baseline = inserted < windows.workload_start
        if applied is None:
            censored += 1 if in_steady else 0
            continue
        if in_steady:
            loaded.append(applied)
        elif in_baseline:
            baseline.append(applied)
    waterfall_ms = None
    if loaded and baseline:
        waterfall_ms = (trimmed_mean_of(loaded) -
                        trimmed_mean_of(baseline)) * 1000.0
    estimator_ms = None
    gauge = data.metric(f"slave.{slave}.relative_delay_ms")
    if gauge is not None and gauge.get("values"):
        estimator_ms = gauge["values"][-1]
    return HeartbeatReconciliation(
        slave=slave, loaded=len(loaded), baseline=len(baseline),
        censored=censored, waterfall_relative_ms=waterfall_ms,
        estimator_relative_ms=estimator_ms)

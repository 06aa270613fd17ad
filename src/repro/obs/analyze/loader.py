"""Load trace artifacts (or a live session) into one analyzable bundle.

The analysis plane consumes exactly what PR 3's exporters emit — the
``spans.jsonl`` records (plus the ``"kind": "meta"`` health line), the
``metrics.jsonl`` instrument snapshots, and the ``kernelProfile`` rider
of ``trace.json`` — so a :class:`TraceData` can be built either from a
directory of artifacts or straight from an in-memory
:class:`~repro.obs.Observability` without re-running anything.

This module (like the whole ``obs.analyze`` package) must not import
``repro.sim`` or ``repro.experiments``: the kernel imports ``repro.obs``
for its null singletons, and the analyzer has to stay loadable from
artifacts alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["AnalysisError", "TraceData", "load_artifacts",
           "from_session", "health_errors", "RESIDUE_TOLERANCE_S"]

#: Clock advances telescope, so the profiler's unattributed residue is
#: float rounding noise on a healthy run; anything past this bound
#: means an advance bypassed attribution and the profile shares lie.
RESIDUE_TOLERANCE_S = 1e-6


class AnalysisError(Exception):
    """The artifacts cannot support the requested analysis."""


@dataclass
class TraceData:
    """One run's artifacts, parsed: spans, metrics, health meta, profile."""

    spans: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    profile: Optional[dict] = None

    # -- indexed access ----------------------------------------------------
    def spans_named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def metric(self, name: str) -> Optional[dict]:
        for snapshot in self.metrics:
            if snapshot["name"] == name:
                return snapshot
        return None

    def gauge_window(self, name: str, start: float,
                     end: float) -> list[tuple[float, float]]:
        """(time, value) samples of a gauge with start < time <= end."""
        snapshot = self.metric(name)
        if snapshot is None or snapshot.get("kind") != "gauge":
            return []
        return [(t, v) for t, v in zip(snapshot["times"],
                                       snapshot["values"])
                if start < t <= end]

    def gauge_names(self, suffix: str) -> list[str]:
        return sorted(s["name"] for s in self.metrics
                      if s.get("kind") == "gauge"
                      and s["name"].endswith(suffix))


def load_artifacts(directory: str) -> TraceData:
    """Parse a ``repro cell|drill --out`` directory."""
    spans_path = os.path.join(directory, "spans.jsonl")
    if not os.path.exists(spans_path):
        raise AnalysisError(
            f"no spans.jsonl under {directory!r} — run "
            f"'python -m repro cell --out {directory}' first")
    spans: list[dict] = []
    meta: dict = {}
    with open(spans_path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "meta":
                meta = record
            else:
                spans.append(record)
    metrics: list[dict] = []
    metrics_path = os.path.join(directory, "metrics.jsonl")
    if os.path.exists(metrics_path):
        with open(metrics_path, "r", encoding="utf-8") as handle:
            metrics = [json.loads(line) for line in handle
                       if line.strip()]
    profile = None
    trace_path = os.path.join(directory, "trace.json")
    if os.path.exists(trace_path):
        with open(trace_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        profile = document.get("kernelProfile")
        for key in ("droppedSpans", "finalSimTime",
                    "unattributedSimTime"):
            if key in document and key not in meta:
                meta[key] = document[key]
    return TraceData(spans=spans, metrics=metrics, meta=meta,
                     profile=profile)


def from_session(observe) -> TraceData:
    """Build the same bundle from a live (attached) Observability."""
    from ..export import sorted_spans, span_record
    meta = observe.meta()   # raises when the session never ran
    return TraceData(
        spans=[span_record(s) for s in sorted_spans(observe.tracer)],
        metrics=observe.metrics.snapshot(), meta=meta,
        profile=observe.profiler.snapshot())


def health_errors(meta: dict) -> list[str]:
    """Why these artifacts must not be analyzed (empty = healthy).

    Dropped spans mean the tracer discarded late ``end()`` calls — the
    span set is incomplete, so waterfall sums would silently miss
    events.  Unattributed sim-time means clock advances bypassed the
    profiler, so its shares misstate where time went.
    """
    errors: list[str] = []
    dropped = meta.get("droppedSpans", 0)
    if dropped:
        errors.append(
            f"tracer dropped {dropped} late span end(s) — the trace is "
            f"incomplete; fix the instrumentation leak (close spans "
            f"before Observability.finalize()) and re-record")
    residue = meta.get("unattributedSimTime")
    if residue is not None and abs(residue) > RESIDUE_TOLERANCE_S:
        errors.append(
            f"kernel profiler left {residue:.9f}s of clock advance "
            f"unattributed (tolerance {RESIDUE_TOLERANCE_S:g}s) — the "
            f"profile is not a faithful decomposition; re-record with "
            f"a kernel that attributes every advance")
    return errors

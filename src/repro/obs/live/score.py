"""Detection scoring: alert fire-times vs the injector's ground truth.

A chaos drill knows exactly what went wrong and when — the fault
schedule is the ground truth the SLO plane is graded against.  For
every injected fault with a mapped alert rule, the score is the
**time-to-detect**: first matching incident fired inside the fault's
detection window, minus the fault's injection time.  A fault whose
alert was *already firing* when it landed (drills overlap faults on
purpose) counts as detected with a zero time-to-detect.

The schedule is duck-typed (iterable of objects with ``at``, ``kind``,
``target``, ``duration``) so this module stays import-light — it must
not import :mod:`repro.sim` or :mod:`repro.chaos` at module level (the
kernel imports ``NULL_LIVE`` from this package).
"""

from __future__ import annotations

from typing import Optional

from .incidents import canonical_round

__all__ = ["FAULT_ALERTS", "score_detection"]

#: fault kind -> alert rule names that should catch it (default spec).
#: ``latency`` is deliberately unmapped: a 120 ms one-way surge is
#: within the staleness budget and must *not* page.
FAULT_ALERTS = {
    "slave-slow": ("staleness", "staleness-burn", "slave-cpu"),
    "partition": ("repl-gap", "staleness", "staleness-burn"),
    "repl-stall": ("repl-gap", "staleness", "staleness-burn"),
    "slave-crash": ("repl-gap", "staleness", "staleness-burn"),
    "master-crash": ("master-unavailable",),
    "latency": (),
}


def _matches_target(fault, stream: str) -> bool:
    """Slave-targeted faults must be detected *on that slave's*
    stream; link faults and crashes accept any stream."""
    if fault.kind in ("slave-slow", "repl-stall", "slave-crash"):
        return f".{fault.target}." in f".{stream}."
    return True


def score_detection(incidents: list, schedule, offset: float = 0.0,
                    tolerance_s: float = 30.0,
                    fault_alerts: Optional[dict] = None) -> dict:
    """Match alert fire-times against a fault schedule.

    ``incidents`` are :class:`~repro.obs.live.alerts.Incident`
    records; ``schedule`` iterates faults whose ``at`` is relative to
    ``offset`` (the drill's workload start); ``tolerance_s`` bounds
    the detection window past the fault's own duration.
    """
    mapping = FAULT_ALERTS if fault_alerts is None else fault_alerts
    rows = []
    scored = detected_count = 0
    per_kind: dict = {}
    for fault in schedule:
        mapped = list(mapping.get(fault.kind, ()))
        injected_at = offset + fault.at
        window_end = injected_at + fault.duration + tolerance_s
        row = {
            "kind": fault.kind,
            "target": fault.target,
            "at_s": canonical_round(injected_at),
            "mapped_rules": mapped,
            "detected": False,
            "matched_rule": None,
            "matched_stream": None,
            "time_to_detect_s": None,
        }
        if mapped:
            scored += 1
            best = None
            for incident in incidents:
                if incident.rule not in mapped:
                    continue
                if not _matches_target(fault, incident.stream):
                    continue
                resolved = incident.resolved_at_s
                if incident.fired_at_s <= injected_at:
                    # Already firing when the fault landed: detected,
                    # trivially — unless it resolved before injection.
                    if resolved is not None and resolved < injected_at:
                        continue
                    candidate = (0.0, incident)
                elif incident.fired_at_s <= window_end:
                    candidate = (incident.fired_at_s - injected_at,
                                 incident)
                else:
                    continue
                if best is None or candidate[0] < best[0]:
                    best = candidate
            if best is not None:
                ttd, incident = best
                detected_count += 1
                row["detected"] = True
                row["matched_rule"] = incident.rule
                row["matched_stream"] = incident.stream
                row["time_to_detect_s"] = canonical_round(ttd)
                kind_stats = per_kind.setdefault(
                    fault.kind, {"scored": 0, "detected": 0,
                                 "ttd_s": []})
                kind_stats["detected"] += 1
                kind_stats["ttd_s"].append(canonical_round(ttd))
                kind_stats["scored"] += 1
            else:
                kind_stats = per_kind.setdefault(
                    fault.kind, {"scored": 0, "detected": 0,
                                 "ttd_s": []})
                kind_stats["scored"] += 1
        rows.append(row)
    summary = {}
    for kind in sorted(per_kind):
        stats = per_kind[kind]
        ttds = stats["ttd_s"]
        summary[kind] = {
            "scored": stats["scored"],
            "detected": stats["detected"],
            "ttd_s": ttds,
            "max_ttd_s": max(ttds) if ttds else None,
        }
    return {
        "tolerance_s": canonical_round(tolerance_s),
        "scored": scored,
        "detected": detected_count,
        "missed": scored - detected_count,
        "unscored": sum(1 for row in rows if not row["mapped_rules"]),
        "faults": rows,
        "per_kind": summary,
    }

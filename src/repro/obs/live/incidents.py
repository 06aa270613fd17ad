"""The incident timeline: a canonical, byte-deterministic document.

Everything the alert engine saw — fires, resolves, peaks, evidence —
rendered as one JSON document (sorted keys, rounded floats, content
digest) plus a fixed-format text timeline.  Two same-seed runs produce
byte-identical files, so CI can ``cmp`` them.

The document cross-links the post-hoc planes: the ``bottleneck``
section carries the :mod:`repro.obs.analyze` verdict for the same run
(what the system *was* limited by) next to the live alerts (what the
SLO plane *noticed*, and when), and ``detection`` carries the
fault-matching scorecard (:mod:`repro.obs.live.score`) when the run
was a chaos drill.

This module must not import :mod:`repro.sim` (the kernel imports
``NULL_LIVE`` from this package).
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

__all__ = ["canonical_round", "incidents_document", "render_incidents_text",
           "write_incidents"]


def canonical_round(value: float) -> float:
    """The live plane's one float form: six places, ``-0.0`` as ``0.0``
    (shared by alerts, incidents and detection scores)."""
    return round(float(value) + 0.0, 6)


def incidents_document(engine, final_time: float,
                       bottleneck: Optional[dict] = None,
                       detection: Optional[dict] = None) -> dict:
    """The canonical incident timeline for one run.

    ``engine`` is the run's :class:`~repro.obs.live.alerts.
    AlertEngine`; ``bottleneck`` the ``obs/analyze`` diagnosis dict
    (None when the run was not analyzed); ``detection`` the chaos
    scorecard (None outside drills).
    """
    spec = engine.spec
    document = {
        "spec": {
            "name": spec.name,
            "digest": spec.digest(),
            "rules": len(spec.rules),
            "period_s": canonical_round(spec.period_s),
        },
        "final_time_s": canonical_round(final_time),
        "evaluations": engine.evaluations,
        "fired": engine.fired,
        "resolved": engine.resolved,
        "incidents": [incident.as_dict()
                      for incident in engine.incidents],
        "bottleneck": bottleneck,
        "detection": detection,
    }
    canonical = json.dumps(document, sort_keys=True,
                           separators=(",", ":"))
    document["digest"] = hashlib.sha256(
        canonical.encode("utf-8")).hexdigest()
    return document


def render_incidents_text(document: dict) -> str:
    """Fixed-format text timeline (byte-identical per seed)."""
    spec = document["spec"]
    lines = [
        f"incident timeline — spec {spec['name']!r} "
        f"({spec['rules']} rules, digest {spec['digest'][:16]}…)",
        f"run: {document['final_time_s']:.3f}s sim, "
        f"{document['evaluations']} evaluations, "
        f"{document['fired']} fired / {document['resolved']} resolved",
        "",
    ]
    if not document["incidents"]:
        lines.append("no incidents")
    for incident in document["incidents"]:
        if incident["open"]:
            span = f"t={incident['fired_at_s']:9.3f}s … (open)"
        else:
            span = (f"t={incident['fired_at_s']:9.3f}s … "
                    f"{incident['resolved_at_s']:9.3f}s")
        peak = "-" if incident["peak"] is None \
            else f"{incident['peak']:.3f}"
        lines.append(
            f"  #{incident['id']:<3d} [{incident['severity']:<4s}] "
            f"{incident['rule']:<18s} {incident['stream']:<32s} "
            f"{span}  peak={peak}")
        for stream, value in incident["evidence"].items():
            lines.append(f"        evidence {stream} = {value:.3f}")
    detection = document.get("detection")
    if detection is not None:
        lines.append("")
        lines.append(
            f"detection vs injected faults: "
            f"{detection['detected']}/{detection['scored']} detected "
            f"({detection['unscored']} fault(s) with no mapped rule)")
        for entry in detection["faults"]:
            if entry["mapped_rules"] == []:
                verdict = "unmapped"
            elif entry["detected"]:
                verdict = (f"detected in "
                           f"{entry['time_to_detect_s']:.3f}s "
                           f"by {entry['matched_rule']}")
            else:
                verdict = "MISSED"
            target = entry["target"] or "-"
            lines.append(
                f"  t=+{entry['at_s']:8.3f}s {entry['kind']:<13s} "
                f"{target:<22s} {verdict}")
    bottleneck = document.get("bottleneck")
    if bottleneck is not None:
        lines.append("")
        lines.append(f"bottleneck verdict (obs/analyze): "
                     f"{bottleneck.get('verdict', '?')}")
    lines.append("")
    lines.append(f"document digest: {document['digest']}")
    return "\n".join(lines)


def write_incidents(document: dict, path) -> None:
    """Write the canonical ``incidents.json`` (sorted keys, compact
    separators, trailing newline — byte-identical per seed)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True,
                  separators=(",", ":"))
        handle.write("\n")

"""Declarative SLOs: alert rules over live streams.

An :class:`SLOSpec` is data, not code — a named set of
:class:`AlertRule` records that the :class:`~repro.obs.live.alerts.
AlertEngine` evaluates against a :class:`~repro.obs.live.streams.
LivePipeline` at sim-time.  Specs round-trip through plain dicts
(:meth:`SLOSpec.as_dict` / :meth:`SLOSpec.from_dict`) so they can be
loaded from a JSON file (:func:`load_slo_file`), and carry a canonical
digest so ``incidents.json`` records exactly which policy produced it.

Three rule kinds:

* ``threshold`` — the stream's current value breaches a bound and
  holds it for ``for_s`` sim-seconds; resolves with hysteresis (a
  separate ``clear`` bound held for ``clear_for_s``).
* ``absence`` — the stream stops updating for more than ``threshold``
  sim-seconds (dead-man switch; e.g. heartbeat rows stop arriving when
  the master dies).  A stream that has never updated is not absent —
  the rule arms on first sample.
* ``burn-rate`` — multi-window error-budget burn: each sample is
  mapped to a violation indicator (1.0 when it breaches
  ``objective``), and the rule fires when the violating *fraction*
  over both a fast and a slow window exceeds ``burn_threshold`` —
  fast-window spikes alone don't page, slow-window averages alone
  can't hide a sustained breach.

This module must not import :mod:`repro.sim` (the kernel imports
``NULL_LIVE`` from this package).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["AlertRule", "SLOSpec", "load_slo_file",
           "default_slo_spec", "RULE_KINDS", "SEVERITIES"]

RULE_KINDS = ("threshold", "absence", "burn-rate")
SEVERITIES = ("page", "warn", "info")
_COMPARISONS = ("gt", "lt")


@dataclass(frozen=True)
class AlertRule:
    """One alert rule; immutable so specs hash and share safely.

    ``stream`` may be an ``fnmatch`` pattern — each matching stream
    gets its own independent alert state (per-slave staleness pages
    name the slave, not the fleet).
    """

    name: str
    kind: str
    stream: str
    #: Fire bound: value bound for ``threshold``/``burn-rate`` rules
    #: (per ``comparison``), max silent sim-seconds for ``absence``.
    threshold: float
    comparison: str = "gt"
    #: Breach must hold this long before the alert fires.
    for_s: float = 0.0
    #: Hysteresis: resolve bound (defaults to ``threshold``) held for
    #: ``clear_for_s`` before the alert resolves.
    clear: Optional[float] = None
    clear_for_s: float = 0.0
    severity: str = "page"
    #: burn-rate only: a sample violates the objective when it
    #: breaches this value (per ``comparison``).
    objective: Optional[float] = None
    fast_window_s: float = 5.0
    slow_window_s: float = 60.0
    #: threshold only: evaluate an EWMA of the stream (this sim-time
    #: constant) instead of the raw value — one isolated spike can't
    #: page, a sustained shift can't hide between samples.
    smooth_tau_s: Optional[float] = None
    #: Streams snapshotted into the incident's evidence on fire.
    evidence: Tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("alert rule needs a name")
        if self.kind not in RULE_KINDS:
            raise ValueError(f"rule {self.name!r}: kind must be one "
                             f"of {RULE_KINDS}, got {self.kind!r}")
        if self.comparison not in _COMPARISONS:
            raise ValueError(f"rule {self.name!r}: comparison must "
                             f"be one of {_COMPARISONS}, got "
                             f"{self.comparison!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"rule {self.name!r}: severity must be "
                             f"one of {SEVERITIES}, got "
                             f"{self.severity!r}")
        if self.for_s < 0 or self.clear_for_s < 0:
            raise ValueError(f"rule {self.name!r}: hold durations "
                             f"must be >= 0")
        if self.kind == "burn-rate":
            if self.objective is None:
                raise ValueError(f"rule {self.name!r}: burn-rate "
                                 f"rules need an objective")
            if not 0.0 < self.threshold <= 1.0:
                raise ValueError(f"rule {self.name!r}: burn-rate "
                                 f"threshold is a fraction in "
                                 f"(0, 1], got {self.threshold}")
            if not 0 < self.fast_window_s <= self.slow_window_s:
                raise ValueError(f"rule {self.name!r}: windows must "
                                 f"satisfy 0 < fast <= slow")
        if self.kind == "absence" and self.threshold <= 0:
            raise ValueError(f"rule {self.name!r}: absence threshold "
                             f"(max silence) must be positive")
        if self.smooth_tau_s is not None:
            if self.kind != "threshold":
                raise ValueError(f"rule {self.name!r}: smoothing "
                                 f"applies to threshold rules only")
            if self.smooth_tau_s <= 0:
                raise ValueError(f"rule {self.name!r}: smooth_tau_s "
                                 f"must be positive")

    @property
    def clear_bound(self) -> float:
        """Resolve bound; equal to the fire bound when unset."""
        return self.threshold if self.clear is None else self.clear

    def breaches(self, value: float, bound: float) -> bool:
        """Does ``value`` breach ``bound`` under this comparison?"""
        return value > bound if self.comparison == "gt" \
            else value < bound

    def as_dict(self) -> dict:
        record = {
            "name": self.name,
            "kind": self.kind,
            "stream": self.stream,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "for_s": self.for_s,
            "clear": self.clear,
            "clear_for_s": self.clear_for_s,
            "severity": self.severity,
            "evidence": list(self.evidence),
            "description": self.description,
        }
        if self.kind == "burn-rate":
            record["objective"] = self.objective
            record["fast_window_s"] = self.fast_window_s
            record["slow_window_s"] = self.slow_window_s
        if self.smooth_tau_s is not None:
            record["smooth_tau_s"] = self.smooth_tau_s
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "AlertRule":
        known = {"name", "kind", "stream", "threshold", "comparison",
                 "for_s", "clear", "clear_for_s", "severity",
                 "objective", "fast_window_s", "slow_window_s",
                 "smooth_tau_s", "evidence", "description"}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"alert rule has unknown fields: "
                             f"{sorted(unknown)}")
        fields = dict(record)
        fields["evidence"] = tuple(fields.get("evidence") or ())
        return cls(**fields)


@dataclass(frozen=True)
class SLOSpec:
    """A named, digestible set of alert rules."""

    name: str
    rules: Tuple[AlertRule, ...]
    #: Engine evaluation period in sim-seconds.
    period_s: float = 0.5

    def __post_init__(self):
        if not self.name:
            raise ValueError("SLO spec needs a name")
        if not 0 < self.period_s < math.inf:   # NaN too
            raise ValueError(f"spec {self.name!r}: period_s must be "
                             f"finite and positive, got {self.period_s}")
        seen = set()
        for rule in self.rules:
            if rule.name in seen:
                raise ValueError(f"spec {self.name!r}: duplicate "
                                 f"rule name {rule.name!r}")
            seen.add(rule.name)

    def as_dict(self) -> dict:
        return {"name": self.name, "period_s": self.period_s,
                "rules": [rule.as_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, record: dict) -> "SLOSpec":
        known = {"name", "period_s", "rules"}
        unknown = set(record) - known
        if unknown:
            raise ValueError(f"SLO spec has unknown fields: "
                             f"{sorted(unknown)}")
        return cls(name=record["name"],
                   period_s=record.get("period_s", 0.5),
                   rules=tuple(AlertRule.from_dict(rule)
                               for rule in record.get("rules", ())))

    def digest(self) -> str:
        canonical = json.dumps(self.as_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_slo_file(path) -> SLOSpec:
    """Load an :class:`SLOSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return SLOSpec.from_dict(json.load(handle))


def default_slo_spec() -> SLOSpec:
    """The stock policy used by drills, CI smoke and the CLI.

    Thresholds are tuned against the default chaos drill (see
    EXPERIMENTS.md ALERT): staleness pages catch slave-slow,
    partition, repl-stall and slave-crash faults; the heartbeat
    dead-man switch catches master crashes; utilization rules warn on
    saturation before staleness pages.
    """
    return SLOSpec(
        name="default",
        period_s=0.5,
        rules=(
            AlertRule(
                name="staleness",
                kind="threshold",
                stream="slave.*.seconds_behind",
                threshold=2.0,
                for_s=2.0,
                clear=1.0,
                clear_for_s=5.0,
                severity="page",
                evidence=("slave.*.seconds_behind",
                          "slave.*.relay_backlog",
                          "master.binlog_head"),
                description="replica staleness above the 2 s bound",
            ),
            AlertRule(
                name="staleness-burn",
                kind="burn-rate",
                stream="slave.*.seconds_behind",
                objective=1.0,
                threshold=0.5,
                fast_window_s=5.0,
                slow_window_s=30.0,
                for_s=0.0,
                clear_for_s=10.0,
                severity="warn",
                evidence=("slave.*.seconds_behind",),
                description="staleness error budget burning in both "
                            "the 5 s and 30 s windows",
            ),
            AlertRule(
                name="repl-gap",
                kind="threshold",
                stream="slave.*.repl_gap",
                threshold=15.0,
                for_s=2.5,
                clear=10.0,
                clear_for_s=5.0,
                severity="page",
                evidence=("slave.*.repl_gap",
                          "slave.*.relay_backlog",
                          "master.binlog_head"),
                description="committed-but-unapplied event gap — "
                            "catches partitions and stalled dump "
                            "connections the relay-log oracle "
                            "cannot see",
            ),
            AlertRule(
                name="slave-cpu",
                kind="threshold",
                stream="slave.*.cpu_util",
                threshold=0.45,
                smooth_tau_s=5.0,
                for_s=5.0,
                clear=0.3,
                clear_for_s=7.5,
                severity="warn",
                evidence=("slave.*.cpu_util", "slave.*.cpu_queue"),
                description="sustained slave CPU pressure (EWMA) — "
                            "a degraded instance or a read hot spot",
            ),
            AlertRule(
                name="master-cpu",
                kind="threshold",
                stream="master.cpu_util",
                threshold=0.9,
                for_s=10.0,
                clear=0.75,
                clear_for_s=10.0,
                severity="warn",
                evidence=("master.cpu_util", "master.cpu_queue"),
                description="master CPU saturated (the paper's "
                            "write knee)",
            ),
            AlertRule(
                name="master-unavailable",
                kind="absence",
                stream="heartbeat.beat",
                threshold=3.0,
                clear_for_s=2.0,
                severity="page",
                evidence=("master.binlog_head",),
                description="heartbeat rows stopped arriving at the "
                            "master",
            ),
        ),
    )

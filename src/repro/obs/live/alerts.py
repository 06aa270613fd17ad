"""The alert engine: SLO rules evaluated at sim-time with hysteresis.

Each (rule, matched-stream) pair owns an independent state machine::

    idle --breach--> pending --held for_s--> firing
    pending --recovers--> idle
    firing --below clear bound--> clearing --held clear_for_s--> idle
    clearing --re-breach of clear bound--> firing

Fires and resolves emit ``alert.fire`` / ``alert.resolve`` instant
spans on the ``slo`` track plus ``alerts.fired`` / ``alerts.resolved``
counters, and accumulate :class:`Incident` records — the raw material
of the ``incidents.json`` timeline (:mod:`repro.obs.live.incidents`).

The engine is usable headless (:meth:`AlertEngine.evaluate` on any
pipeline — the ``obs.stream`` bench drives it this way) or attached to
a simulator as a kernel process (:meth:`AlertEngine.attach`).

This module must not import :mod:`repro.sim` at module level (the
kernel imports ``NULL_LIVE`` from this package) — the interrupt type
is imported lazily inside the evaluation loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..tracer import NULL_TRACER
from .incidents import canonical_round
from .slo import AlertRule, SLOSpec
from .streams import Ewma, LivePipeline, Mapped, WindowedMean

__all__ = ["AlertEngine", "AlertState", "Incident"]


@dataclass
class Incident:
    """One fire..resolve episode of a (rule, stream) alert."""

    incident_id: int
    rule: str
    stream: str
    severity: str
    fired_at_s: float
    resolved_at_s: Optional[float] = None
    #: Worst observed value while pending/firing (per comparison).
    peak: Optional[float] = None
    #: Evidence streams at fire time: ``{stream: value}``.
    evidence: dict = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.resolved_at_s is None

    def as_dict(self) -> dict:
        return {
            "id": self.incident_id,
            "rule": self.rule,
            "stream": self.stream,
            "severity": self.severity,
            "fired_at_s": canonical_round(self.fired_at_s),
            "resolved_at_s": (None if self.resolved_at_s is None
                              else canonical_round(self.resolved_at_s)),
            "open": self.open,
            "peak": (None if self.peak is None
                     else canonical_round(self.peak)),
            "evidence": {name: canonical_round(value)
                         for name, value in self.evidence.items()},
        }


class AlertState:
    """Hysteresis state for one (rule, stream) pair."""

    __slots__ = ("rule", "stream", "firing", "pending_since",
                 "clear_since", "peak", "incident")

    def __init__(self, rule: AlertRule, stream: str):
        self.rule = rule
        self.stream = stream
        self.firing = False
        #: Sim time the current uninterrupted breach began.
        self.pending_since: Optional[float] = None
        #: Sim time the current uninterrupted recovery began.
        self.clear_since: Optional[float] = None
        self.peak: Optional[float] = None
        self.incident: Optional[Incident] = None

    def track_peak(self, value: float) -> None:
        rule = self.rule
        if self.peak is None or rule.breaches(value, self.peak):
            self.peak = value
        if self.incident is not None and (
                self.incident.peak is None
                or rule.breaches(value, self.incident.peak)):
            self.incident.peak = value


class AlertEngine:
    """Evaluates an :class:`SLOSpec` against a live pipeline."""

    def __init__(self, pipeline: LivePipeline, spec: SLOSpec,
                 tracer=NULL_TRACER, metrics=None):
        self.pipeline = pipeline
        self.spec = spec
        self.tracer = tracer
        self.metrics = metrics
        #: (rule name, stream) -> AlertState.
        self._states: dict = {}
        #: Closed + open incidents, in fire order.
        self.incidents: list = []
        self.fired = 0
        self.resolved = 0
        self.evaluations = 0
        self._next_incident_id = 1
        #: burn-rate bookkeeping: (rule name, stream) pairs whose
        #: derived indicator nodes exist already.
        self._burn_nodes: dict = {}
        #: smoothed-threshold bookkeeping, same keying.
        self._smooth_nodes: dict = {}

    # -- state lookup -------------------------------------------------------
    def state(self, rule_name: str,
              stream: str) -> Optional[AlertState]:
        return self._states.get((rule_name, stream))

    def active(self) -> list:
        """Currently firing (rule, stream) pairs, sorted."""
        return sorted((rule_name, stream)
                      for (rule_name, stream), st in
                      self._states.items() if st.firing)

    # -- burn-rate plumbing -------------------------------------------------
    def _burn_reader(self, rule: AlertRule, stream: str):
        """Fast/slow windowed-mean nodes over the violation indicator
        of ``stream``, created on first need."""
        key = (rule.name, stream)
        nodes = self._burn_nodes.get(key)
        if nodes is None:
            objective, breaches = rule.objective, rule.breaches
            indicator = self.pipeline.derive(
                f"_slo.{rule.name}.{stream}.violation",
                Mapped(lambda v: 1.0 if breaches(v, objective)
                       else 0.0),
                stream)
            fast = self.pipeline.derive(
                f"_slo.{rule.name}.{stream}.burn_fast",
                WindowedMean(rule.fast_window_s), indicator)
            slow = self.pipeline.derive(
                f"_slo.{rule.name}.{stream}.burn_slow",
                WindowedMean(rule.slow_window_s), indicator)
            nodes = (fast, slow)
            self._burn_nodes[key] = nodes
        return nodes

    def _smooth_reader(self, rule: AlertRule, stream: str):
        """EWMA node over ``stream`` for a smoothed threshold rule,
        created on first need."""
        key = (rule.name, stream)
        node = self._smooth_nodes.get(key)
        if node is None:
            node = self.pipeline.derive(
                f"_slo.{rule.name}.{stream}.ewma",
                Ewma(rule.smooth_tau_s), stream)
            self._smooth_nodes[key] = node
        return node

    # -- rule conditions ----------------------------------------------------
    def _condition(self, rule: AlertRule, stream: str, now: float,
                   firing: bool):
        """(breaching, recovered, observed value) for one stream.

        ``breaching`` uses the fire bound; ``recovered`` uses the
        hysteresis clear bound — between the two bounds an alert
        neither fires anew nor resolves.
        """
        if rule.kind == "absence":
            last = self.pipeline.last_update(stream)
            if last is None:
                return False, True, None  # never armed
            silence = now - last
            return (silence > rule.threshold,
                    silence <= rule.threshold, silence)
        if rule.kind == "burn-rate":
            fast, slow = self._burn_reader(rule, stream)
            fast_burn, slow_burn = fast.read(now), slow.read(now)
            if fast_burn is None or slow_burn is None:
                return False, True, None
            burning = (fast_burn >= rule.threshold
                       and slow_burn >= rule.threshold)
            return burning, not burning, max(fast_burn, slow_burn)
        if rule.smooth_tau_s is not None:
            value = self._smooth_reader(rule, stream).read(now)
        else:
            value = self.pipeline.read(stream, now)
        if value is None:
            return False, not firing, None
        return (rule.breaches(value, rule.threshold),
                not rule.breaches(value, rule.clear_bound), value)

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, now: float) -> None:
        """One evaluation pass over every rule at sim time ``now``."""
        self.evaluations += 1
        for rule in self.spec.rules:
            for stream in self._match(rule):
                self._step(rule, stream, now)

    def _match(self, rule: AlertRule) -> list:
        streams = self.pipeline.match(rule.stream)
        if rule.kind == "absence" and not streams:
            # Absence rules watch for a stream that may exist later;
            # track the literal name so state survives pattern misses.
            if not any(ch in rule.stream for ch in "*?["):
                return [rule.stream]
        return streams

    def _step(self, rule: AlertRule, stream: str,
              now: float) -> None:
        key = (rule.name, stream)
        st = self._states.get(key)
        if st is None:
            st = self._states[key] = AlertState(rule, stream)
        breaching, recovered, value = self._condition(
            rule, stream, now, st.firing)
        if value is not None and rule.kind != "absence":
            st.track_peak(value)
        if not st.firing:
            if breaching:
                if st.pending_since is None:
                    st.pending_since = now
                    st.peak = value
                elif value is not None:
                    st.track_peak(value)
                if now - st.pending_since >= rule.for_s:
                    self._fire(st, now, value)
            else:
                st.pending_since = None
        else:
            if recovered:
                if st.clear_since is None:
                    st.clear_since = now
                if now - st.clear_since >= rule.clear_for_s:
                    self._resolve(st, now)
            else:
                st.clear_since = None

    # -- transitions --------------------------------------------------------
    def _fire(self, st: AlertState, now: float,
              value: Optional[float]) -> None:
        st.firing = True
        st.clear_since = None
        incident = Incident(
            incident_id=self._next_incident_id,
            rule=st.rule.name,
            stream=st.stream,
            severity=st.rule.severity,
            fired_at_s=now,
            peak=st.peak if st.peak is not None else value,
            evidence=self._snapshot_evidence(st.rule, now),
        )
        self._next_incident_id += 1
        st.incident = incident
        self.incidents.append(incident)
        self.fired += 1
        self.tracer.instant(
            "alert.fire", category="slo", track="slo",
            rule=st.rule.name, stream=st.stream,
            severity=st.rule.severity)
        if self.metrics is not None:
            self.metrics.counter("alerts.fired").inc()

    def _resolve(self, st: AlertState, now: float) -> None:
        st.firing = False
        st.pending_since = None
        st.clear_since = None
        st.peak = None
        if st.incident is not None:
            st.incident.resolved_at_s = now
            st.incident = None
        self.resolved += 1
        self.tracer.instant(
            "alert.resolve", category="slo", track="slo",
            rule=st.rule.name, stream=st.stream)
        if self.metrics is not None:
            self.metrics.counter("alerts.resolved").inc()

    def _snapshot_evidence(self, rule: AlertRule,
                           now: float) -> dict:
        evidence = {}
        for pattern in rule.evidence:
            for stream in self.pipeline.match(pattern):
                if stream.startswith("_slo."):
                    continue
                value = self.pipeline.read(stream, now)
                if value is not None:
                    evidence[stream] = value
        return dict(sorted(evidence.items()))

    # -- kernel process -----------------------------------------------------
    def attach(self, sim):
        """Start the evaluation loop as a kernel process."""
        return sim.process(self._run(sim), name="slo-engine")

    def _run(self, sim):
        from ...sim import Interrupt  # lazy: no sim import at module load
        period = self.spec.period_s
        try:
            while True:
                yield sim.timeout(period)
                self.evaluate(sim.now)
        except Interrupt:
            pass

"""The live-plane bundle: pipeline + alert engine (+ watchboard) for
one run.

``run_experiment(config, slo=LiveSession(default_slo_spec()))`` (or
``run_drill(..., slo=...)``) attaches the streaming pipeline to the
simulator, taps the run's :class:`~repro.obs.metrics.MetricsRegistry`
so every gauge/counter/histogram update flows through the operator
DAG, and starts the alert engine as a kernel process.  After the run,
:meth:`document` produces the canonical ``incidents.json`` payload.

A bare :class:`~repro.obs.live.slo.SLOSpec` is also accepted wherever
a ``LiveSession`` is — the deployment wraps it (:meth:`LiveSession.of`).

This module must not import :mod:`repro.sim` at module level (the
kernel imports ``NULL_LIVE`` from this package).
"""

from __future__ import annotations

from typing import Optional

from .alerts import AlertEngine
from .incidents import incidents_document
from .slo import SLOSpec
from .streams import LivePipeline
from .watch import Watchboard

__all__ = ["LiveSession"]


class LiveSession:
    """Configuration + live handles for one run's SLO plane."""

    def __init__(self, spec: SLOSpec,
                 watch_interval: Optional[float] = None):
        self.spec = spec
        #: None: no watchboard; else the dashboard frame period (s).
        self.watch_interval = watch_interval
        self.pipeline: Optional[LivePipeline] = None
        self.engine: Optional[AlertEngine] = None
        self.board: Optional[Watchboard] = None
        self._sim = None

    @classmethod
    def of(cls, slo) -> "LiveSession":
        """Coerce an ``SLOSpec`` (or pass a session through)."""
        if isinstance(slo, cls):
            return slo
        if isinstance(slo, SLOSpec):
            return cls(slo)
        raise TypeError(f"slo must be an SLOSpec or LiveSession, "
                        f"got {type(slo).__name__}")

    @property
    def attached(self) -> bool:
        return self._sim is not None

    def attach(self, sim) -> "LiveSession":
        """Wire the live plane into ``sim`` (once).

        Call *after* :class:`~repro.obs.Observability` so the metrics
        registry tap sees the run's real registry; a run without
        metrics still works — components can publish directly through
        ``sim.live``.
        """
        if self._sim is not None:
            raise RuntimeError("LiveSession is already attached — "
                               "use one session per run")
        self._sim = sim
        self.pipeline = LivePipeline(now_fn=lambda: sim.now)
        if sim.metrics.enabled:
            self.pipeline.attach_metrics(sim.metrics)
        sim.live = self.pipeline
        self.engine = AlertEngine(self.pipeline, self.spec,
                                  tracer=sim.tracer,
                                  metrics=sim.metrics
                                  if sim.metrics.enabled else None)
        self.engine.attach(sim)
        if self.watch_interval is not None:
            self.board = Watchboard(self.pipeline, self.engine,
                                    interval=self.watch_interval)
            self.board.attach(sim)
        return self

    @property
    def incidents(self) -> list:
        return self.engine.incidents if self.engine is not None \
            else []

    def document(self, final_time: float,
                 bottleneck: Optional[dict] = None,
                 detection: Optional[dict] = None) -> dict:
        """The canonical incident timeline for this run."""
        if self.engine is None:
            raise RuntimeError("LiveSession was never attached to a "
                               "run — pass it to run_experiment")
        return incidents_document(self.engine, final_time,
                                  bottleneck=bottleneck,
                                  detection=detection)

    def render_watch(self) -> str:
        """The watchboard transcript (empty without watch_interval)."""
        return self.board.render() if self.board is not None else ""

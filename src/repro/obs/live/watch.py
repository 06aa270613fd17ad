"""The watchboard: a periodic text dashboard of live streams.

``repro cell|drill --watch`` renders what an operator's terminal
would show — every public stream's current value plus the alerts
firing right now — sampled on a fixed sim-time interval.  Frames are
collected during the run and printed afterwards; under a fixed seed
the concatenated output is byte-identical, so the dashboard itself is
a testable artifact.

Of :mod:`repro.sim` this module imports only :mod:`repro.sim.actor`,
which loads while the kernel is still loading (the kernel imports
``NULL_LIVE`` from this package).
"""

from __future__ import annotations

from ...sim.actor import Actor

__all__ = ["Watchboard"]


class Watchboard:
    """Collects fixed-format dashboard frames as a kernel process."""

    def __init__(self, pipeline, engine=None, interval: float = 10.0):
        self.pipeline = pipeline
        self.engine = engine
        self.frames: list = []
        self._actor = Actor("watchboard", self._tick, interval)
        self._sim = None

    def attach(self, sim):
        self._sim = sim
        return self._actor.start(sim)

    def stop(self) -> None:
        self._actor.stop()

    def frame_now(self, now: float) -> str:
        """Render one frame at sim time ``now`` (and keep it)."""
        lines = [f"── watch t={now:10.3f}s " + "─" * 24]
        names = [name for name in self.pipeline.names()
                 if not name.startswith("_slo.")]
        if not names:
            lines.append("  (no streams yet)")
        for name in names:
            value = self.pipeline.read(name, now)
            rendered = "      -" if value is None \
                else f"{value:12.3f}"
            lines.append(f"  {name:<36s} {rendered}")
        if self.engine is not None:
            active = self.engine.active()
            if active:
                lines.append(f"  alerts firing: {len(active)}")
                for rule_name, stream in active:
                    lines.append(f"    ! {rule_name:<18s} {stream}")
            else:
                lines.append("  alerts firing: 0")
        frame = "\n".join(lines)
        self.frames.append(frame)
        return frame

    def render(self) -> str:
        """Every collected frame, newline-joined."""
        return "\n".join(self.frames)

    def _tick(self) -> None:
        self.frame_now(self._sim.now)

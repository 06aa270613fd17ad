"""Per-instance local clocks with offset and drift.

The paper (§IV-B.1) observes that EC2 instances launched by one account
never share a physical host, so every pair of instances suffers clock
skew: an initial offset plus linear drift, corrected only every couple
of hours by Amazon unless the tenant runs NTP aggressively.

:class:`LocalClock` models exactly that: a wall-clock reading is

    ``wall(t) = t + offset + drift_rate * (t - t_set)``

where ``offset`` is re-anchored whenever NTP steps the clock.  Times are
seconds; drift rates are dimensionless (seconds of error per second,
i.e. 36 ppm == 36e-6).
"""

from __future__ import annotations

from ..sim import Simulator

__all__ = ["LocalClock"]


class LocalClock:
    """A drifting local clock attached to a simulated instance."""

    def __init__(self, sim: Simulator, offset: float = 0.0,
                 drift_rate: float = 0.0):
        self.sim = sim
        self.drift_rate = float(drift_rate)
        self._offset = float(offset)
        self._anchor = sim.now  # sim time when offset was last set

    # -- reading -------------------------------------------------------------
    # Each method reads the kernel's time once (``sim.now``) and spells
    # out the arithmetic of the methods it stands for, in their order,
    # so every reading is the same float.
    def error(self) -> float:
        """Current deviation from true (simulated) time, in seconds."""
        return self._offset + self.drift_rate * (self.sim.now - self._anchor)

    def now(self) -> float:
        """Wall-clock reading: true time plus the accumulated error.

        This is what the database's time/date function returns; the
        microsecond-resolution UDF of the paper reads this value.
        """
        t = self.sim.now
        return t + (self._offset + self.drift_rate * (t - self._anchor))

    # -- adjustment ------------------------------------------------------------
    def step_to_error(self, residual: float) -> None:
        """NTP-style step: force the current error to ``residual``.

        A perfect synchronization would pass 0.0; a realistic one passes
        the residual error left by network asymmetry.
        """
        self._offset = float(residual)
        self._anchor = self.sim.now

    def slew(self, delta: float) -> None:
        """Shift the clock by ``delta`` seconds without re-anchoring drift."""
        self._offset = self.error() + float(delta)
        self._anchor = self.sim.now

    def difference(self, other: "LocalClock") -> float:
        """Reading difference ``self - other`` at the current instant.

        This is the quantity plotted in the paper's Fig. 4 (measured
        time differences between two instances).
        """
        t = self.sim.now
        return (t + (self._offset + self.drift_rate * (t - self._anchor))) \
            - (t + (other._offset + other.drift_rate * (t - other._anchor)))

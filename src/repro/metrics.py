"""Measurement utilities shared by the heartbeat estimator, the
workload driver and the experiment harness."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["trimmed_mean", "Summary", "summarize", "TimeSeries"]


def trimmed_mean(samples: Sequence[float], trim: float = 0.05) -> float:
    """Mean with the top and bottom ``trim`` fraction cut as outliers.

    This is the paper's estimator (§IV-B.1): "Both average is sampled
    with the top 5% and the bottom 5% data cut out as outliers, because
    of network fluctuation."
    """
    if not 0.0 <= trim < 0.5:
        raise ValueError(f"trim must be in [0, 0.5), got {trim}")
    if len(samples) == 0:
        raise ValueError("cannot take the mean of no samples")
    ordered = sorted(samples)
    cut = int(math.floor(len(ordered) * trim))
    kept = ordered[cut:len(ordered) - cut] if cut else ordered
    return float(np.mean(kept))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample set."""

    count: int
    mean: float
    median: float
    std: float
    minimum: float
    maximum: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.3f} "
                f"median={self.median:.3f} std={self.std:.3f} "
                f"min={self.minimum:.3f} max={self.maximum:.3f}")


def summarize(samples: Sequence[float]) -> Summary:
    if len(samples) == 0:
        raise ValueError("cannot summarize no samples")
    arr = np.asarray(samples, dtype=float)
    return Summary(count=len(arr), mean=float(arr.mean()),
                   median=float(np.median(arr)), std=float(arr.std()),
                   minimum=float(arr.min()), maximum=float(arr.max()))


class TimeSeries:
    """(time, value) samples with window filtering.

    Samples must be recorded in non-decreasing time order (simulated
    clocks only move forward), which lets the window queries run in
    O(log n) via bisect instead of scanning every sample.
    """

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} after "
                f"{self.times[-1]}")
        self.times.append(time)
        self.values.append(value)

    def _bounds(self, start: float, end: float) -> tuple[int, int]:
        """Index range [lo, hi) of samples with ``start <= time <
        end``."""
        if end <= start or not self.times:
            return 0, 0
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end, lo)
        return lo, hi

    def window(self, start: float, end: float) -> list[float]:
        """Values with ``start <= time < end``."""
        lo, hi = self._bounds(start, end)
        return self.values[lo:hi]

    def count_in(self, start: float, end: float) -> int:
        lo, hi = self._bounds(start, end)
        return hi - lo

    def rate_in(self, start: float, end: float) -> float:
        """Events per second over the window."""
        span = end - start
        if span <= 0:
            return 0.0
        return self.count_in(start, end) / span

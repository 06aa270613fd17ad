"""Read/write operation mixes.

The paper defines two configurations of the read/write ratio: **50/50**
and **80/20** (§III-A).  The ratio is enforced probabilistically per
operation, which is how the benchmark "controls the read/write ratio
... by separately adjusting the number of read and write operations".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ...sim.rng import choice_cdf
from .operations import (Operation, READ_OPERATIONS, WRITE_OPERATIONS)

__all__ = ["OperationMix", "MIX_50_50", "MIX_80_20"]


def _cdf(table) -> list[float]:
    """Cumulative weights, normalised as ``rng.choice(n, p=...)`` does."""
    weights = np.array([w for _op, w in table], dtype=float)
    return choice_cdf(weights / weights.sum())


_READ_CDF, _WRITE_CDF = _cdf(READ_OPERATIONS), _cdf(WRITE_OPERATIONS)


@dataclass(frozen=True)
class OperationMix:
    """A read fraction over the weighted operation tables."""

    name: str
    read_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], "
                             f"got {self.read_fraction}")

    @property
    def write_fraction(self) -> float:
        return 1.0 - self.read_fraction

    def pick(self, rng: np.random.Generator) -> Operation:
        """Draw the next operation — as ``rng.choice(n, p=...)`` does,
        one uniform draw against the cdf (same stream, same index)."""
        table, cdf = (READ_OPERATIONS, _READ_CDF) \
            if rng.random() < self.read_fraction \
            else (WRITE_OPERATIONS, _WRITE_CDF)
        return table[bisect_right(cdf, rng.random())][0]


#: The paper's two configurations.
MIX_50_50 = OperationMix("50/50", read_fraction=0.50)
MIX_80_20 = OperationMix("80/20", read_fraction=0.80)

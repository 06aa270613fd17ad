"""Deterministic named random streams.

Every stochastic component in the reproduction (network jitter, clock
drift, think times, instance-performance lottery, workload mixes) draws
from its own named stream so that experiments are reproducible and a
change to one component's draw order never perturbs another component.

Streams are derived from a root seed plus the stream name via
``numpy.random.SeedSequence``, which guarantees independent,
well-distributed child states.

A name is used one way for its whole life.  :meth:`RandomStreams.stream`
and :meth:`~RandomStreams.spawn` hand its Generator out *raw*.  The
other reads buffer it, with one of two kinds: standard normals (the
scalar ``normal`` and ``lognormal_around``) or uniforms.  A block is
``_BLOCK`` variates fetched in one Generator call.  The scalar draws
transform them with the same IEEE operations numpy's scalar methods
perform, so every value equals the one the scalar call would have
returned.  Using a buffered name raw, or with the other kind, raises:
the block read ahead would silently shift what the other use sees.

:meth:`RandomStreams.variates` reads a name's next *n* variates of its
kind as one array, sliced from the same blocks; the name is then where
*n* scalar draws would have left it.  A batch caller applies the
scalar formula elementwise (``median * np.exp(0.0 + sigma * z)``) and
gets the scalar values.  Uniforms have no scalar draw: a weighted
choice is ``np.searchsorted(weighted_cdf(weights), u, side="right")``
over them, the index ``Generator.choice(n, p=...)`` picks.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

__all__ = ["RandomStreams", "choice_cdf", "weighted_cdf"]

#: Variates fetched per Generator call for a buffered name.
_BLOCK = 1024
#: ``Generator.choice`` rejects probabilities whose sum is further than
#: this from 1.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_cdf(probabilities) -> list[float]:
    """The cdf ``Generator.choice(n, p=probabilities)`` searches: the
    running sum, divided by its last entry.  ``bisect_right(cdf, u)``
    on one uniform ``u`` then picks the index ``choice`` picks."""
    cdf = np.cumsum(probabilities, dtype=float)
    return (cdf / cdf[-1]).tolist()


def weighted_cdf(weights) -> list[float]:
    """``choice_cdf`` of ``w / sum(weights)``, checked as ``choice``
    checks its ``p``."""
    total = float(sum(weights))
    probabilities = [w / total for w in weights]
    if not probabilities \
            or not all(p >= 0.0 for p in probabilities) \
            or abs(math.fsum(probabilities) - 1.0) > _SUM_ATOL:
        raise ValueError(f"weights must be non-negative with a positive "
                         f"finite sum, got {weights!r}")
    return choice_cdf(probabilities)


class _Block:
    """One buffered name: its current block (as an array, and as a
    list for the scalar draws) and how far it is read."""

    __slots__ = ("draw", "array", "values", "index")

    def __init__(self, draw):
        self.draw = draw
        self.index = _BLOCK          # nothing unread: the first draw refills

    def refill(self) -> None:
        self.array = self.draw(_BLOCK)
        self.values = self.array.tolist()
        self.index = 0


class _Uniforms(_Block):
    """A name drawn as uniforms."""

    __slots__ = ()

    def __init__(self, gen: np.random.Generator):
        super().__init__(gen.random)


class _Normals(_Block):
    """A name ``normal`` and ``lognormal_around`` draw: standard
    normals."""

    __slots__ = ("sigma", "exps")

    def __init__(self, gen: np.random.Generator):
        super().__init__(gen.standard_normal)
        self.sigma = None

    def refill(self) -> None:
        super().refill()
        self.sigma = None            # ``exps`` is stale

    def exponentiate(self, sigma: float) -> None:
        """What ``np.exp(Generator.normal(0.0, sigma))`` computes, for
        each unread variate of the block; ``exps[i]`` belongs to
        ``values[i]``."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma!r}")
        index = self.index
        self.exps = [0.0] * index \
            + np.exp(0.0 + sigma * self.array[index:]).tolist()
        self.sigma = sigma


#: How each kind of entry in ``RandomStreams._names`` was drawn.
_USES = {np.random.Generator: "raw", _Normals: "as normals",
         _Uniforms: "as uniforms"}
#: The kinds :meth:`RandomStreams.variates` reads.
_KINDS = {"normal": _Normals, "uniform": _Uniforms}


class RandomStreams:
    """A factory of independent, reproducible RNG streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        #: Each name's one use: its raw Generator or its buffered block.
        self._names: dict[str, object] = {}

    def _generator(self, name: str) -> np.random.Generator:
        tag = zlib.crc32(name.encode("utf-8"))
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(tag,))
        return np.random.Generator(np.random.PCG64(seq))

    def _claim(self, name: str, use: type):
        """``name``'s entry of type ``use`` (a key of ``_USES``),
        created on first use; a name first used another way raises."""
        entry = self._names.get(name)
        if entry is None:
            gen = self._generator(name)
            entry = self._names[name] = \
                gen if use is np.random.Generator else use(gen)
        elif type(entry) is not use:
            raise ValueError(f"stream {name!r} is already drawn "
                             f"{_USES[type(entry)]}; it cannot be drawn "
                             f"{_USES[use]}")
        return entry

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created on first use.

        The same ``(seed, name)`` pair always yields the same sequence.
        """
        return self._claim(name, np.random.Generator)

    def spawn(self, name: str, index: int) -> np.random.Generator:
        """A per-index child stream, e.g. one per emulated user."""
        return self.stream(f"{name}[{index}]")

    def _refilled(self, name: str, kind: type) -> _Block:
        """``name``'s block of ``kind`` with a fresh block of variates
        (the caller found none unread, or no block of that kind)."""
        block = self._claim(name, kind)
        block.refill()
        return block

    # Batch reads ----------------------------------------------------------
    def variates(self, name: str, kind: str, n: int) -> np.ndarray:
        """``name``'s next ``n`` standard normals (``kind="normal"``) or
        uniforms (``"uniform"``) as one array.

        Element ``i`` is the variate the ``i``-th of ``n`` scalar draws
        of that kind would read, and the name is left where those draws
        would leave it.  Reading the kind a name is not drawn as raises,
        as a scalar draw does.
        """
        use = _KINDS.get(kind)
        if use is None:
            raise ValueError(f"kind must be one of {sorted(_KINDS)}, "
                             f"got {kind!r}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n!r}")
        block = self._claim(name, use)
        parts = []
        while n:
            if block.index == _BLOCK:
                block.refill()
            start = block.index
            stop = min(_BLOCK, start + n)
            parts.append(block.array[start:stop])
            block.index = stop
            n -= stop - start
        return np.concatenate(parts) if parts else np.empty(0)

    # Scalar draws --------------------------------------------------------
    def lognormal_around(self, name: str, median: float,
                         sigma: float) -> float:
        """Lognormal sample with the given median (scale) and shape:
        ``median * exp(normal(0.0, sigma))``."""
        block = self._names.get(name)
        if block.__class__ is not _Normals or block.index == _BLOCK:
            block = self._refilled(name, _Normals)
        if sigma != block.sigma:
            block.exponentiate(sigma)
        index = block.index
        block.index = index + 1
        return float(median * block.exps[index])

    def normal(self, name: str, mean: float, std: float) -> float:
        """``mean + std * z`` for the name's next standard normal ``z``."""
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std!r}")
        block = self._names.get(name)
        if block.__class__ is not _Normals or block.index == _BLOCK:
            block = self._refilled(name, _Normals)
        index = block.index
        block.index = index + 1
        return float(mean + std * block.values[index])

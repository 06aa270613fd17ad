"""Tests for deterministic named RNG streams."""

import functools
import zlib
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RandomStreams
from repro.sim.rng import _BLOCK, weighted_cdf


def choice_weighted(streams, name, options, weights):
    """Pick one of ``options`` with relative ``weights`` from ``name``'s
    next uniform, as ``Generator.choice(len(options), p=...)`` does:
    the scalar form of the batched instance lottery."""
    cdf = weighted_cdf(weights)
    if len(options) != len(cdf):
        raise ValueError(f"{len(options)} options but {len(cdf)} weights")
    u = streams.variates(name, "uniform", 1)[0]
    return options[bisect_right(cdf, u)]


def test_same_seed_same_name_reproduces():
    a = RandomStreams(seed=7).stream("net").random(5)
    b = RandomStreams(seed=7).stream("net").random(5)
    assert np.array_equal(a, b)


def test_different_names_independent():
    streams = RandomStreams(seed=7)
    a = streams.stream("net").random(5)
    b = streams.stream("cpu").random(5)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("net").random(5)
    b = RandomStreams(seed=2).stream("net").random(5)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("x") is streams.stream("x")


def test_spawn_indexed_streams_differ():
    streams = RandomStreams(seed=0)
    a = streams.spawn("user", 0).random(3)
    b = streams.spawn("user", 1).random(3)
    assert not np.array_equal(a, b)


def test_lognormal_around_median():
    streams = RandomStreams(seed=3)
    samples = [streams.lognormal_around("lat", median=10.0, sigma=0.2)
               for _ in range(4000)]
    assert abs(np.median(samples) - 10.0) < 0.5


def test_choice_weighted_respects_weights():
    streams = RandomStreams(seed=4)
    picks = [choice_weighted(streams, "mix", ["r", "w"], [9.0, 1.0])
             for _ in range(2000)]
    read_fraction = picks.count("r") / len(picks)
    assert 0.85 < read_fraction < 0.95


# -- buffered draws equal the scalar Generator calls ------------------------
class _ScalarReference:
    """The scalar formulas, one fresh Generator per name, as the
    streams computed them before draws were buffered."""

    def __init__(self, seed):
        self.seed = seed
        self.generators = {}

    def generator(self, name):
        if name not in self.generators:
            seq = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(zlib.crc32(name.encode("utf-8")),))
            self.generators[name] = np.random.Generator(np.random.PCG64(seq))
        return self.generators[name]

    def normal(self, name, mean, std):
        return float(self.generator(name).normal(mean, std))

    def lognormal_around(self, name, median, sigma):
        return float(median * np.exp(self.generator(name).normal(0.0, sigma)))

    def choice_weighted(self, name, options, weights):
        total = float(sum(weights))
        probabilities = [w / total for w in weights]
        return options[int(self.generator(name).choice(
            len(options), p=probabilities))]

    def variates(self, name, kind, n):
        draw = {"normal": self.generator(name).standard_normal,
                "uniform": self.generator(name).random}[kind]
        return np.array([draw() for _ in range(n)])


_NAMES = ["network.latency", "ntp.a", "cloud.lottery", "cloud.lottery.noise"]
_finite = dict(allow_nan=False, allow_infinity=False)
_normal_call = st.one_of(
    st.tuples(st.just("normal"), st.floats(-1e3, 1e3, **_finite),
              st.floats(0.0, 50.0, **_finite)),
    st.tuples(st.just("lognormal_around"), st.floats(0.01, 1e3, **_finite),
              st.sampled_from([0.0, 0.08, 0.3, 1.0, 2.5])))
_choice_call = st.tuples(
    st.just("choice_weighted"),
    st.lists(st.floats(0.0, 10.0, **_finite), min_size=1,
             max_size=5).filter(lambda ws: sum(ws) > 0))
#: Batch lengths around one block: empty, one, and across its edges.
_BATCH_LENGTHS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2500]


def _call(draw, choice):
    """One scalar call of a name's kind, or a batch read of it."""
    if draw(st.integers(0, 3)) == 0:
        kind = "uniform" if choice else "normal"
        return ("variates", kind, draw(st.sampled_from(_BATCH_LENGTHS)))
    return draw(_choice_call if choice else _normal_call)


@st.composite
def _programs(draw):
    """(seed, [(name, call, count)]): runs of one call on one name,
    interleaved across 1-4 names of fixed kind; a call is a scalar
    draw or a batch read.  The first name is topped up past two block
    boundaries."""
    n_names = draw(st.integers(1, 4))
    kinds = [draw(st.booleans()) for _ in range(n_names)]  # True: choice
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        index = draw(st.integers(0, n_names - 1))
        call = _call(draw, kinds[index])
        count = draw(st.integers(1, 2 if call[0] == "variates" else 700))
        runs.append((_NAMES[index], call, count))
    first = sum(count * (call[2] if call[0] == "variates" else 1)
                for name, call, count in runs if name == _NAMES[0])
    if first <= 2 * _BLOCK:
        call = draw(_choice_call if kinds[0] else _normal_call)
        runs.append((_NAMES[0], call, 2 * _BLOCK + 1 - first))
    return draw(st.integers(0, 2**32 - 1)), runs


def _replay(streams, runs):
    values = []
    for name, (method, *args), count in runs:
        if method == "choice_weighted":
            weights = args[0]
            args = (list(range(len(weights))), weights)
        # ``RandomStreams`` has no scalar weighted choice: the
        # module's reference draws it from the name's uniforms.
        draw = getattr(streams, method, None) \
            or functools.partial(choice_weighted, streams)
        for _ in range(count):
            if method == "variates":
                values.extend(draw(name, *args).tolist())
            else:
                values.append(draw(name, *args))
    return values


@given(_programs())
@settings(max_examples=40, deadline=None)
def test_buffered_draws_equal_the_scalar_calls(program):
    seed, runs = program
    drawn = _replay(RandomStreams(seed), runs)
    expected = _replay(_ScalarReference(seed), runs)
    assert all(type(value) is type(want)
               for value, want in zip(drawn, expected))
    assert drawn == expected


def test_sigma_change_mid_block_equals_the_scalar_calls():
    runs = [("lat", ("lognormal_around", 16.0, 0.08), 300),
            ("lat", ("normal", 2.0, 3.0), 10),
            ("lat", ("lognormal_around", 16.0, 0.5), 1500),
            ("lat", ("lognormal_around", 21.0, 0.08), 700)]
    assert _replay(RandomStreams(9), runs) \
        == _replay(_ScalarReference(9), runs)


def test_a_buffered_name_cannot_be_drawn_raw():
    streams = RandomStreams(0)
    streams.normal("ntp.a", 0.0, 1.0)
    with pytest.raises(ValueError, match="cannot be drawn raw"):
        streams.stream("ntp.a")
    choice_weighted(streams, "cloud.lottery", ["a", "b"], [1.0, 1.0])
    with pytest.raises(ValueError, match="cannot be drawn raw"):
        streams.stream("cloud.lottery")


def test_a_buffered_name_keeps_its_kind():
    streams = RandomStreams(0)
    streams.normal("x", 0.0, 1.0)
    streams.lognormal_around("x", 1.0, 0.2)     # same kind: fine
    with pytest.raises(ValueError, match="cannot be drawn as uniforms"):
        choice_weighted(streams, "x", ["a", "b"], [1.0, 1.0])
    choice_weighted(streams, "y", ["a", "b"], [1.0, 1.0])
    with pytest.raises(ValueError, match="cannot be drawn as normals"):
        streams.normal("y", 0.0, 1.0)


def test_a_batch_read_keeps_the_kind_rules():
    streams = RandomStreams(0)
    streams.normal("n", 0.0, 1.0)
    with pytest.raises(ValueError, match="cannot be drawn as uniforms"):
        streams.variates("n", "uniform", 3)
    streams.variates("u", "uniform", 0)           # claims the kind
    with pytest.raises(ValueError, match="cannot be drawn as normals"):
        streams.normal("u", 0.0, 1.0)
    with pytest.raises(ValueError, match="cannot be drawn raw"):
        streams.stream("u")
    streams.stream("loader")
    with pytest.raises(ValueError, match="already drawn raw"):
        streams.variates("loader", "normal", 1)
    with pytest.raises(ValueError, match="kind must be one of"):
        streams.variates("other", "gamma", 1)
    with pytest.raises(ValueError, match="n must be >= 0"):
        streams.variates("n", "normal", -1)


def test_a_batch_read_is_a_copy():
    streams = RandomStreams(2)
    reference = _ScalarReference(2)
    streams.variates("n", "normal", 5)[:] = 0.0
    reference.variates("n", "normal", 5)
    assert streams.lognormal_around("n", 16.0, 0.08) \
        == reference.lognormal_around("n", 16.0, 0.08)


def test_a_raw_name_cannot_be_buffered():
    streams = RandomStreams(0)
    streams.stream("loader")
    with pytest.raises(ValueError, match="already drawn raw"):
        streams.normal("loader", 0.0, 1.0)


def test_invalid_parameters_raise_like_numpy_and_draw_nothing():
    streams = RandomStreams(5)
    reference = _ScalarReference(5)
    with pytest.raises(ValueError):
        streams.normal("n", 0.0, -1.0)
    with pytest.raises(ValueError):
        streams.lognormal_around("n", 1.0, -0.5)
    with pytest.raises(ValueError):
        choice_weighted(streams, "c", ["a", "b"], [2.0, -1.0])
    with pytest.raises(ValueError):
        choice_weighted(streams, "c", ["a", "b", "c"], [1.0, 1.0])
    assert streams.normal("n", 0.0, 1.0) == reference.normal("n", 0.0, 1.0)
    assert choice_weighted(streams, "c", ["a", "b"], [1.0, 3.0]) \
        == reference.choice_weighted("c", ["a", "b"], [1.0, 3.0])

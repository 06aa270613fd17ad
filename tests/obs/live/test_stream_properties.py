"""Property-based tests on the streaming operators.

Every incremental operator is checked against a brute-force recompute
over the full sample tape: whatever state the operator keeps (a
trailing window, a running EWMA), reading it at any sim time must
agree with "keep everything, filter, aggregate".
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.live.streams import (Ewma, LivePipeline, Mapped,
                                    WindowedMean)

#: (dt, value) pairs; times accumulate so tapes are monotonic, as sim
#: time is.
_TAPE = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=5.0, allow_nan=False,
                  allow_infinity=False),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False)),
    min_size=1, max_size=60)
_WINDOW = st.floats(min_value=0.5, max_value=20.0, allow_nan=False)
#: Extra sim time between the last sample and the read.
_ADVANCE = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)


def _accumulate(tape):
    """[(dt, value)] -> [(t, value)] with monotonic t."""
    t = 0.0
    out = []
    for dt, value in tape:
        t += dt
        out.append((t, value))
    return out


def _in_window(points, now, window):
    """Window membership is strict: ``t > now - window``."""
    return [(t, v) for t, v in points if t > now - window]


@given(tape=_TAPE, window=_WINDOW, advance=_ADVANCE)
@settings(max_examples=200, deadline=None)
def test_windowed_mean_matches_bruteforce(tape, window, advance):
    op = WindowedMean(window)
    points = _accumulate(tape)
    for t, value in points:
        op.update(t, value)
    now = points[-1][0] + advance
    live = _in_window(points, now, window)
    got = op.read(now)
    if not live:
        assert got is None
    else:
        expected = math.fsum(v for _t, v in live) / len(live)
        assert math.isclose(got, expected, rel_tol=1e-9,
                            abs_tol=1e-12)


@given(tape=_TAPE,
       tau=st.floats(min_value=0.1, max_value=30.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_ewma_matches_bruteforce_recursion(tape, tau):
    op = Ewma(tau)
    points = _accumulate(tape)
    expected = None
    last_t = None
    for t, value in points:
        op.update(t, value)
        if expected is None:
            expected = value
        else:
            alpha = 1.0 - math.exp(-max(t - last_t, 0.0) / tau)
            expected += alpha * (value - expected)
        last_t = t
    assert math.isclose(op.read(points[-1][0]), expected,
                        rel_tol=1e-9, abs_tol=1e-12)


def test_window_membership_is_strict():
    """A sample exactly one window old has fallen out (t > now − w)."""
    op = WindowedMean(10.0)
    op.update(0.0, 100.0)
    op.update(5.0, 50.0)
    assert op.read(9.999) == 75.0
    assert op.read(10.0) == 50.0  # the t=0 sample is gone
    assert op.read(14.999) == 50.0
    assert op.read(15.0) is None  # ...and now the t=5 one


def test_pipeline_fanout_updates_all_derived_nodes():
    pipeline = LivePipeline()
    pipeline.derive("s.mean", WindowedMean(10.0), "s")
    pipeline.derive("s.milli", Mapped(lambda value: value * 1e3), "s")
    pipeline.derive("s.smooth", Ewma(5.0), "s")
    for t, value in ((1.0, 2.0), (2.0, 6.0), (3.0, 4.0)):
        pipeline.publish("s", value, t)
    assert pipeline.published == 3
    assert pipeline.read("s", 3.0) == 4.0
    assert pipeline.read("s.mean", 3.0) == 4.0
    assert pipeline.read("s.milli", 3.0) == 4000.0
    assert pipeline.names() == ["s", "s.mean", "s.milli", "s.smooth"]
    assert pipeline.match("s.m*") == ["s.mean", "s.milli"]
    assert pipeline.match("s") == ["s"]
    assert pipeline.match("missing") == []

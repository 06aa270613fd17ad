"""Tests for the shared metrics utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import TimeSeries, summarize, trimmed_mean


# ------------------------------------------------------------ trimmed_mean
def test_trimmed_mean_plain_average_when_no_trim_needed():
    assert trimmed_mean([1.0, 2.0, 3.0], trim=0.0) == pytest.approx(2.0)


def test_trimmed_mean_cuts_outliers():
    # 20 samples, 5% trim -> one sample cut from each end.
    samples = [10.0] * 18 + [0.0, 1000.0]
    assert trimmed_mean(samples, trim=0.05) == pytest.approx(10.0)


def test_trimmed_mean_paper_default_is_five_percent():
    samples = list(range(100))
    # cuts 0-4 and 95-99
    assert trimmed_mean(samples) == pytest.approx(
        sum(range(5, 95)) / 90)


def test_trimmed_mean_validation():
    with pytest.raises(ValueError):
        trimmed_mean([1.0], trim=0.5)
    with pytest.raises(ValueError):
        trimmed_mean([1.0], trim=-0.1)
    with pytest.raises(ValueError):
        trimmed_mean([])


@given(samples=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                  allow_nan=False), min_size=1,
                        max_size=100),
       trim=st.floats(min_value=0.0, max_value=0.45))
@settings(max_examples=200, deadline=None)
def test_trimmed_mean_bounded_by_extremes(samples, trim):
    value = trimmed_mean(samples, trim)
    assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9


@given(samples=st.lists(st.floats(min_value=-1e3, max_value=1e3,
                                  allow_nan=False), min_size=3,
                        max_size=50))
@settings(max_examples=100, deadline=None)
def test_trimmed_mean_invariant_to_order(samples):
    # Seeded shuffle: deterministic, despite using stdlib random.
    import random  # simlint: disable=DET002
    shuffled = list(samples)
    random.Random(0).shuffle(shuffled)
    assert trimmed_mean(samples) == pytest.approx(trimmed_mean(shuffled))


# --------------------------------------------------------------- summarize
def test_summarize():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.median == pytest.approx(2.5)
    assert stats.minimum == 1.0 and stats.maximum == 4.0
    assert "n=4" in str(stats)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


# -------------------------------------------------------------- TimeSeries
def test_timeseries_window_half_open():
    series = TimeSeries()
    for t in (0.0, 1.0, 2.0, 3.0):
        series.record(t, t * 10)
    assert series.window(1.0, 3.0) == [10.0, 20.0]
    assert series.count_in(0.0, 4.0) == 4
    assert len(series) == 4


def test_timeseries_rate():
    series = TimeSeries()
    for t in range(10):
        series.record(float(t), 1.0)
    assert series.rate_in(0.0, 10.0) == pytest.approx(1.0)
    assert series.rate_in(0.0, 5.0) == pytest.approx(1.0)
    assert series.rate_in(5.0, 5.0) == 0.0


def test_timeseries_empty():
    series = TimeSeries()
    assert series.window(0.0, 10.0) == []
    assert series.count_in(0.0, 10.0) == 0
    assert series.rate_in(0.0, 10.0) == 0.0


def test_timeseries_degenerate_and_inverted_windows():
    series = TimeSeries()
    series.record(1.0, 10.0)
    series.record(2.0, 20.0)
    assert series.window(1.0, 1.0) == []        # start == end
    assert series.count_in(1.0, 1.0) == 0
    assert series.window(2.0, 1.0) == []        # inverted
    assert series.count_in(2.0, 1.0) == 0


def test_timeseries_window_out_of_range():
    series = TimeSeries()
    for t in (1.0, 2.0, 3.0):
        series.record(t, t)
    assert series.window(-10.0, 0.0) == []      # entirely before
    assert series.window(4.0, 10.0) == []       # entirely after
    assert series.window(-10.0, 10.0) == [1.0, 2.0, 3.0]
    assert series.count_in(3.0, 100.0) == 1     # start inclusive
    assert series.window(0.0, 3.0) == [1.0, 2.0]  # end exclusive


def test_timeseries_duplicate_times_all_counted():
    series = TimeSeries()
    for value in (1.0, 2.0, 3.0):
        series.record(5.0, value)
    assert series.window(5.0, 5.1) == [1.0, 2.0, 3.0]
    assert series.count_in(0.0, 5.0) == 0
    assert series.count_in(5.0, 6.0) == 3


def test_timeseries_rejects_time_going_backwards():
    series = TimeSeries()
    series.record(2.0, 1.0)
    series.record(2.0, 2.0)  # equal timestamps are fine
    with pytest.raises(ValueError):
        series.record(1.0, 3.0)


@given(times=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                allow_nan=False), min_size=0,
                      max_size=60),
       start=st.floats(min_value=-10.0, max_value=1100.0,
                       allow_nan=False),
       span=st.floats(min_value=0.0, max_value=500.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_timeseries_bisect_matches_linear_scan(times, start, span):
    """The bisect fast path must agree with the definitional filter."""
    series = TimeSeries()
    for index, t in enumerate(sorted(times)):
        series.record(t, float(index))
    end = start + span
    expected = [v for t, v in zip(series.times, series.values)
                if start <= t < end]
    assert series.window(start, end) == expected
    assert series.count_in(start, end) == len(expected)

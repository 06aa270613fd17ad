"""FIG4 — Clock differences of two instances, with/without NTP.

Paper's Fig. 4 over a 20-minute window:

* NTP once at the beginning: the difference surges linearly from
  ~7 ms to ~50 ms (median 28.23 ms, std 12.31) due to clock drift;
* NTP every second: the difference stays in a 1-8 ms band
  (median 3.30 ms, std 1.19).
"""

import numpy as np

from repro.experiments import run_fig4_clock_sync

from conftest import produce, publish, publish_section, run_once


def test_fig4_clock_sync(benchmark, results_dir):
    series = run_once(benchmark, lambda: produce("fig4_clock_sync"))
    publish_section(results_dir, "fig4_clock_sync", series)

    once = np.asarray(series["sync_once"])
    periodic = np.asarray(series["sync_every_second"])
    # The surge: starts small, ends an order of magnitude larger.
    assert once[0] < 12.0 and once[-1] > 40.0
    assert 24.0 < np.median(once) < 33.0
    # Aggressive sync keeps the difference bounded at a few ms.
    assert np.median(periodic) < 8.0
    assert np.median(periodic) < np.median(once) / 3.0


def test_fig4_drift_is_linear(benchmark, results_dir):
    """The sync-once difference grows linearly (clock drift between
    consecutive Amazon synchronizations)."""
    def fit():
        series = run_fig4_clock_sync()
        samples = np.asarray(series["sync_once"])
        t = np.arange(len(samples), dtype=float)
        slope, intercept = np.polyfit(t, samples, 1)
        residual = samples - (slope * t + intercept)
        return slope, float(np.abs(residual).max())

    slope, max_residual = run_once(benchmark, fit)
    publish(results_dir, "fig4_drift_linearity",
            f"drift slope: {slope * 0.1:.4f} ms/s "
            f"(paper pair: ~0.036 ms/s), max linear-fit residual: "
            f"{max_residual:.3f} ms")
    assert slope > 0.0
    assert max_residual < 1.0  # tight linear fit

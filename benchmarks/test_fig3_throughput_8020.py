"""FIG3 — End-to-end throughput, 80/20 read/write ratio, data size 600.

Paper's Fig. 3(a,b,c): throughput vs. 50-450 users for 1-11 slaves.
Expected shape: read capacity scales with the slave count far longer
than at 50/50, until the master's write load caps throughput around
9-10 slaves.
"""

import pytest

from repro.experiments import LocationConfig

from conftest import get_grid, publish, publish_section, run_once


@pytest.mark.parametrize("location", [LocationConfig.SAME_ZONE,
                                      LocationConfig.DIFFERENT_ZONE,
                                      LocationConfig.DIFFERENT_REGION],
                         ids=lambda loc: loc.value)
def test_fig3_throughput_8020(benchmark, results_dir, location):
    grids = run_once(benchmark, lambda: get_grid("80/20", location))
    publish_section(results_dir, f"fig3_{location.value}", grids)

    by_slaves = {g.n_slaves: g for g in grids}
    few, many = min(by_slaves), max(by_slaves)
    # 80/20 scales much further with slaves than 50/50 does: the
    # largest pool must clearly outperform a single slave.
    assert max(by_slaves[many].throughputs) > \
        2.0 * max(by_slaves[few].throughputs)


def test_fig3_max_exceeds_fig2_max(benchmark, results_dir):
    """The read-heavier mix reaches a higher ceiling (paper: ~65 vs
    ~22 ops/s) because the master's write load per operation is lower."""
    def peaks():
        fig2 = get_grid("50/50", LocationConfig.SAME_ZONE)
        fig3 = get_grid("80/20", LocationConfig.SAME_ZONE)
        return (max(t for g in fig2 for t in g.throughputs),
                max(t for g in fig3 for t in g.throughputs))

    peak_5050, peak_8020 = run_once(benchmark, peaks)
    publish(results_dir, "fig3_vs_fig2_peaks",
            f"peak throughput 50/50: {peak_5050:.1f} ops/s\n"
            f"peak throughput 80/20: {peak_8020:.1f} ops/s\n"
            f"ratio: {peak_8020 / peak_5050:.2f} (paper: ~2.5-3x)")
    assert peak_8020 > 1.6 * peak_5050

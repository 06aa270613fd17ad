"""FIG2 — End-to-end throughput, 50/50 read/write ratio, data size 300.

Paper's Fig. 2(a,b,c): throughput vs. 50-200 concurrent users for 1-4
slaves, with slaves in the same zone / a different zone / a different
region.  Expected shape: the 1-slave curve knees around 100 users;
from 2 slaves the knee settles near 175 users; adding the 3rd and 4th
slave yields no further throughput because the master saturates.
"""

import pytest

from repro.experiments import LocationConfig

from conftest import get_grid, publish_section, run_once


@pytest.mark.parametrize("location", [LocationConfig.SAME_ZONE,
                                      LocationConfig.DIFFERENT_ZONE,
                                      LocationConfig.DIFFERENT_REGION],
                         ids=lambda loc: loc.value)
def test_fig2_throughput_5050(benchmark, results_dir, location):
    grids = run_once(benchmark, lambda: get_grid("50/50", location))
    publish_section(results_dir, f"fig2_{location.value}", grids)

    # Shape assertions (who wins, where the ceiling is):
    by_slaves = {g.n_slaves: g for g in grids}
    few, many = min(by_slaves), max(by_slaves)
    # More slaves must raise (or hold) the achievable maximum ...
    assert max(by_slaves[many].throughputs) >= \
        0.95 * max(by_slaves[few].throughputs)
    # ... but the top curves bunch up at the master's ceiling: the best
    # configuration beats the second-largest slave count by < 25 %.
    counts = sorted(by_slaves)
    if len(counts) >= 3:
        second = counts[-2]
        assert max(by_slaves[many].throughputs) <= \
            1.25 * max(by_slaves[second].throughputs)

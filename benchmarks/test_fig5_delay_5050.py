"""FIG5 — Average relative replication delay, 50/50 ratio.

Paper's Fig. 5(a,b,c) (log axis, ~10^0..10^6 ms): with the slave count
fixed, delay surges with workload; the surge reaches several orders of
magnitude at saturation.  Rendered from the same runs as FIG2.
"""

import pytest

from repro.experiments import LocationConfig

from conftest import get_grid, publish, publish_section, run_once


@pytest.mark.parametrize("location", [LocationConfig.SAME_ZONE,
                                      LocationConfig.DIFFERENT_ZONE,
                                      LocationConfig.DIFFERENT_REGION],
                         ids=lambda loc: loc.value)
def test_fig5_delay_5050(benchmark, results_dir, location):
    grids = run_once(benchmark, lambda: get_grid("50/50", location))
    publish_section(results_dir, f"fig5_{location.value}", grids)

    # Delay surges with workload: for the single-slave curve, the
    # heaviest load must exceed the lightest by orders of magnitude.
    single = next(g for g in grids if g.n_slaves == min(
        g.n_slaves for g in grids))
    lightest, heaviest = single.delays_ms[0], single.delays_ms[-1]
    assert heaviest > 50.0 * max(lightest, 0.1)


def test_fig5_more_slaves_less_delay(benchmark, results_dir):
    """Paper: "as the number of slaves increases, the replication
    delay decreases" — compare the fewest vs. most slaves at the
    heaviest common workload."""
    def extremes():
        grids = get_grid("50/50", LocationConfig.SAME_ZONE)
        by_slaves = {g.n_slaves: g for g in grids}
        few = by_slaves[min(by_slaves)]
        many = by_slaves[max(by_slaves)]
        return few.delays_ms[-1], many.delays_ms[-1]

    few_delay, many_delay = run_once(benchmark, extremes)
    publish(results_dir, "fig5_slave_scaling",
            f"delay at heaviest 50/50 load: fewest slaves "
            f"{few_delay:.0f} ms vs most slaves {many_delay:.0f} ms")
    assert many_delay < few_delay

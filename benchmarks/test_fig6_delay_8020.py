"""FIG6 — Average relative replication delay, 80/20 ratio.

Paper's Fig. 6(a,b,c) (~10^-1..10^5 ms): same dynamics as Fig. 5 on
the read-heavy mix.  Rendered from the same runs as FIG3.  The paper's
second observation: placement matters far less than workload — the
half-RTT gap between locations is only 16 vs. 173 ms, while workload
moves the delay by orders of magnitude.
"""

import pytest

from repro.experiments import LocationConfig

from conftest import get_grid, publish, publish_section, run_once


@pytest.mark.parametrize("location", [LocationConfig.SAME_ZONE,
                                      LocationConfig.DIFFERENT_ZONE,
                                      LocationConfig.DIFFERENT_REGION],
                         ids=lambda loc: loc.value)
def test_fig6_delay_8020(benchmark, results_dir, location):
    grids = run_once(benchmark, lambda: get_grid("80/20", location))
    publish_section(results_dir, f"fig6_{location.value}", grids)

    largest = next(g for g in grids if g.n_slaves == max(
        g.n_slaves for g in grids))
    # With the full slave pool, light load keeps delay modest while the
    # heaviest load pushes it up by orders of magnitude.
    assert largest.delays_ms[-1] > 10.0 * max(largest.delays_ms[0], 0.1)


def test_fig6_workload_dominates_location(benchmark, results_dir):
    """Paper §IV-B.2: geographic configuration plays a less significant
    role than workload.  The delay span across workloads (same
    placement) must dwarf the span across placements (same workload,
    light load)."""
    def spans():
        same = get_grid("80/20", LocationConfig.SAME_ZONE)
        far = get_grid("80/20", LocationConfig.DIFFERENT_REGION)
        # Use the largest pool: it is the only curve with a genuinely
        # light-load point at every grid scale.
        pool_same = next(g for g in same if g.n_slaves == max(
            g.n_slaves for g in same))
        pool_far = next(g for g in far if g.n_slaves == max(
            g.n_slaves for g in far))
        workload_span = (max(pool_same.delays_ms)
                         / max(min(pool_same.delays_ms), 0.1))
        location_gap = abs(pool_far.delays_ms[0]
                           - pool_same.delays_ms[0])
        return workload_span, location_gap

    workload_span, location_gap = run_once(benchmark, spans)
    publish(results_dir, "fig6_workload_vs_location",
            f"delay span across workloads (same zone, 1 slave): "
            f"{workload_span:.0f}x\n"
            f"delay gap across locations at light load: "
            f"{location_gap:.1f} ms (~one-way RTT difference)")
    assert workload_span > 50.0
    assert location_gap < 1000.0

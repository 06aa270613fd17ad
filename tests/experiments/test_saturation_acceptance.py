"""Acceptance numbers for the quick Fig. 2 sweep (50/50, same zone).

The paper's §IV-A narrative, as asserted figures: the one-slave curve
leaves the linear-scaling line after ~100 users (its continuous
capacity-intersection knee sits below 150); with two or more slaves
the knee moves to ~175 users; and once enough slaves are attached the
master's write path — not the slaves — is the attributed bottleneck.
One quick-scale grid run (seed 0, ~25 s) feeds every assertion.
"""

import pytest

from repro.experiments import (LocationConfig, PROFILES,
                               render_saturation_schedule,
                               run_throughput_delay_grid)
from repro.obs.analyze import detect_knee


@pytest.fixture(scope="module")
def fig2_grid():
    return run_throughput_delay_grid(
        "50/50", LocationConfig.SAME_ZONE, PROFILES["quick"], seed=0)


def knee_for(grids, n_slaves):
    sweep = next(g for g in grids if g.n_slaves == n_slaves)
    return detect_knee(sweep.users, sweep.throughputs)


def test_one_slave_knee_near_100_users(fig2_grid):
    knee = knee_for(fig2_grid, 1)
    assert knee.saturated
    # The paper reads "the knee of the 1-slave curve is at about 100
    # users": 100 is the last grid point still on the linear line, and
    # the capacity intersection lands below the next grid point.
    assert knee.linear_limit_users == 100
    assert knee.knee_users <= 150.0


def test_multi_slave_knee_near_175_users(fig2_grid):
    for n_slaves in (2, 4):
        knee = knee_for(fig2_grid, n_slaves)
        assert knee.saturated
        # "with two or more slaves it moves to about 175 users".
        assert 160.0 <= knee.knee_users <= 190.0


def test_more_slaves_raise_capacity_until_master_wall(fig2_grid):
    capacities = {g.n_slaves: knee_for(fig2_grid, g.n_slaves).capacity
                  for g in fig2_grid}
    assert capacities[2] > capacities[1] * 1.2
    # The wall: the 4-slave curve buys ~nothing over 2 slaves.
    assert capacities[4] == pytest.approx(capacities[2], rel=0.05)


def test_bottleneck_attribution_matches_narrative(fig2_grid):
    by_slaves = {g.n_slaves: g for g in fig2_grid}
    # One slave, saturated: the slave CPU is the wall.
    assert by_slaves[1].results[-1].bottleneck == "slave-cpu"
    # Four slaves at 200 users: the master write path is the wall.
    heavy = by_slaves[4].results[-1]
    assert heavy.config.n_users == 200
    assert heavy.bottleneck == "master-cpu"
    assert heavy.diagnosis["evidence"]["master_util"] >= 0.90


def test_light_cells_have_no_bottleneck(fig2_grid):
    for sweep in fig2_grid:
        lightest = sweep.results[0]
        assert lightest.config.n_users == 50
        assert lightest.bottleneck == "none"


def test_saturation_schedule_renders_knees(fig2_grid):
    text = render_saturation_schedule(fig2_grid, "schedule")
    assert "linear-limit" in text and "knee-users" in text
    assert "bottleneck" in text
    lines = text.splitlines()
    one_slave = next(line for line in lines[1:]
                     if line.strip().startswith("1"))
    assert "100" in one_slave
    assert "slave-cpu" in one_slave

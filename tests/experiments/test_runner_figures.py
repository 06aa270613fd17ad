"""End-to-end experiment runner and figure-generator tests.

These run tiny, time-scaled cells — the full paper-scale grids live in
``benchmarks/``.
"""

import pytest

from repro.experiments import (LocationConfig, PAPER_50_50,
                               render_delay_table, render_fig4,
                               render_instance_variation, render_rtt_table,
                               render_saturation_schedule,
                               render_throughput_table, run_experiment,
                               run_fig4_clock_sync,
                               run_instance_variation,
                               run_rtt_characterization, run_user_sweep)
from repro.experiments.figures import bench_scale
from repro.workloads.cloudstone import Phases

TINY = Phases(ramp_up=15.0, steady=45.0, ramp_down=10.0)


@pytest.fixture(scope="module")
def small_cell():
    config = PAPER_50_50(LocationConfig.SAME_ZONE, n_slaves=2, n_users=30,
                         phases=TINY, seed=3, baseline_duration=15.0,
                         data_size=60)
    return run_experiment(config)


def test_runner_produces_sane_throughput(small_cell):
    assert small_cell.throughput > 1.0
    assert small_cell.mean_latency_s > 0.0


def test_runner_ratio_near_mix(small_cell):
    assert 0.35 < small_cell.achieved_read_fraction < 0.65


def test_runner_cpu_utilizations_in_range(small_cell):
    assert 0.0 < small_cell.master_cpu <= 1.0
    assert len(small_cell.slave_cpus) == 2
    assert all(0.0 < u <= 1.0 for u in small_cell.slave_cpus)
    assert small_cell.saturated_resource in ("none", "master", "slaves")


def test_runner_measures_relative_delay(small_cell):
    assert small_cell.relative_delay_ms is not None
    assert len(small_cell.per_slave_delay_ms) == 2
    # Light load in the master's zone: delay well under a second.
    assert small_cell.relative_delay_ms < 1000.0


def test_runner_row_renders(small_cell):
    row = small_cell.row()
    assert "30" in row  # user count appears


def test_zero_slave_cluster_supported():
    config = PAPER_50_50(LocationConfig.SAME_ZONE, n_slaves=0, n_users=10,
                         phases=TINY, seed=4, baseline_duration=10.0,
                         data_size=40)
    result = run_experiment(config)
    assert result.relative_delay_ms is None
    assert result.throughput > 0.5


def test_user_sweep_and_tables():
    sweep = run_user_sweep(PAPER_50_50, LocationConfig.SAME_ZONE,
                           n_slaves=1, users=(10, 30), phases=TINY,
                           seed=5, baseline_duration=10.0, data_size=60)
    assert sweep.users == [10, 30]
    assert sweep.throughputs[1] > sweep.throughputs[0]
    throughput_table = render_throughput_table([sweep], "test table")
    delay_table = render_delay_table([sweep], "test delays")
    schedule = render_saturation_schedule([sweep], "schedule")
    assert "1-slave" in throughput_table
    assert "30" in throughput_table
    assert "n/a" not in delay_table
    assert "slaves" in schedule or "none" in schedule or "master" in schedule


# ---------------------------------------------------------- fig4/rtt/var
def test_fig4_reproduces_paper_statistics():
    series = run_fig4_clock_sync()
    once = series["sync_once"]
    every_second = series["sync_every_second"]
    import numpy as np
    # Paper: 7 -> 50 ms surge, median 28.23, std 12.31.
    assert once[0] < 12.0
    assert 45.0 < once[-1] < 56.0
    assert 24.0 < float(np.median(once)) < 33.0
    assert 10.0 < float(np.std(once)) < 15.0
    # Paper: 1-8 ms band, median 3.30, std 1.19.
    assert 1.0 < float(np.median(every_second)) < 8.0
    assert float(np.median(every_second)) < float(np.median(once))
    assert "sync_once" in render_fig4(series)


def test_rtt_characterization_matches_paper():
    half_rtts = run_rtt_characterization(probes=600)
    assert half_rtts["same_zone"] == pytest.approx(16.0, abs=2.0)
    assert half_rtts["different_zone"] == pytest.approx(21.0, abs=2.0)
    assert half_rtts["different_region"] == pytest.approx(173.0, abs=6.0)
    table = render_rtt_table(half_rtts)
    assert "(173)" in table


def test_instance_variation_cov():
    stats = run_instance_variation(launches=1500)
    assert 0.15 < stats["cov"] < 0.27
    assert "CoV" in render_instance_variation(stats)


@pytest.mark.parametrize("duration, sample_period",
                         [(5.0, 0.0), (0.0, 10.0), (5.0, 10.0), (5.0, -1.0)])
def test_fig4_rejects_a_sample_period_outside_the_run(duration,
                                                      sample_period):
    with pytest.raises(ValueError, match="0 < sample_period <= duration"):
        run_fig4_clock_sync(duration=duration, sample_period=sample_period)


@pytest.mark.parametrize("probes", [0, -3])
def test_rtt_rejects_fewer_than_one_probe(probes):
    with pytest.raises(ValueError, match="probes >= 1"):
        run_rtt_characterization(probes=probes)


def test_instance_variation_rejects_no_launches():
    with pytest.raises(ValueError, match="launches >= 1"):
        run_instance_variation(launches=0)


def test_bench_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert bench_scale().name == "quick"
    monkeypatch.setenv("REPRO_SCALE", "standard")
    assert bench_scale().time_factor == 0.1
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert bench_scale().users_80_20[-1] == 450
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    with pytest.raises(ValueError):
        bench_scale()

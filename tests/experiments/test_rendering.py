"""Rendering helpers: n/a delay cells, table layout, schedule text."""

from repro.experiments import (LocationConfig, PAPER_50_50,
                               render_delay_table,
                               render_saturation_schedule,
                               render_throughput_table)
from repro.experiments.runner import ExperimentResult
from repro.experiments.sweeps import SweepResult
from repro.workloads.cloudstone import Phases

PHASES = Phases(10, 20, 5)


def fake_sweep(n_slaves, cells):
    """cells: list of (users, tput, delay_or_None, master_cpu)."""
    sweep = SweepResult(LocationConfig.SAME_ZONE, "50/50", n_slaves)
    for users, tput, delay, master_cpu in cells:
        config = PAPER_50_50(LocationConfig.SAME_ZONE, n_slaves, users,
                             PHASES)
        sweep.results.append(ExperimentResult(
            config=config, throughput=tput, achieved_read_fraction=0.5,
            mean_latency_s=0.1, master_cpu=master_cpu,
            slave_cpus=[0.5] * n_slaves if n_slaves else [],
            relative_delay_ms=delay))
    return sweep


def test_throughput_table_layout():
    grids = [fake_sweep(1, [(50, 5.0, 1.0, 0.3), (100, 9.0, 2.0, 0.6)]),
             fake_sweep(2, [(50, 5.1, 1.0, 0.3), (100, 9.8, 1.5, 0.6)])]
    table = render_throughput_table(grids, "My title")
    lines = table.splitlines()
    assert lines[0] == "My title"
    assert "1-slave" in lines[1] and "2-slave" in lines[1]
    assert lines[2].strip().startswith("50")
    assert "9.8" in lines[3]


def test_delay_table_handles_none_and_floor():
    grids = [fake_sweep(0, [(50, 5.0, None, 0.3)]),
             fake_sweep(1, [(50, 5.0, -3.0, 0.3)])]
    table = render_delay_table(grids, "delays")
    assert "n/a" in table
    assert "0.0" in table  # negative clamp to the 0.01 floor


def test_saturation_schedule_lines():
    sweep = fake_sweep(3, [(50, 5.0, 1.0, 0.5), (100, 9.0, 1.0, 0.95),
                           (150, 9.1, 1.0, 0.99)])
    text = render_saturation_schedule([sweep], "schedule")
    assert "master" in text
    assert "9.1@150" in text


def test_schedule_reports_none_when_rising():
    sweep = fake_sweep(1, [(50, 5.0, 1.0, 0.3), (100, 9.0, 1.0, 0.4)])
    text = render_saturation_schedule([sweep], "schedule")
    assert "None" in text


def test_schedule_names_the_tier_saturated_at_the_heaviest_load():
    # The peak (9.5 @ 100 users) saturates nothing; the heaviest load
    # after it saturates the master, and that is the tier named.
    sweep = fake_sweep(2, [(50, 5.0, 1.0, 0.3), (100, 9.5, 1.0, 0.6),
                           (150, 9.0, 1.0, 0.95)])
    row = render_saturation_schedule([sweep], "schedule").splitlines()[2]
    assert "9.5@100" in row
    assert row.split()[-2] == "master"

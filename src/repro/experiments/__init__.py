"""Experiment harness: configs, runner, sweeps, figure generators."""

from .config import (ExperimentConfig, LocationConfig, PAPER_50_50,
                     PAPER_80_20)
from .figures import (LOCATIONS, PROFILES, ScaleProfile, bench_scale,
                      render_delay_table, render_fig4,
                      render_instance_variation, render_rtt_table,
                      render_saturation_schedule, render_throughput_table,
                      run_fig4_clock_sync, run_instance_variation,
                      run_rtt_characterization, run_throughput_delay_grid)
from .runner import ExperimentResult, run_experiment
from .sweeps import (SweepResult, USERS_50_50, USERS_80_20, max_throughput,
                     run_grid, run_user_sweep, saturation_point)

__all__ = [
    "ExperimentConfig",
    "LocationConfig",
    "PAPER_50_50",
    "PAPER_80_20",
    "ExperimentResult",
    "run_experiment",
    "SweepResult",
    "run_user_sweep",
    "run_grid",
    "saturation_point",
    "max_throughput",
    "USERS_50_50",
    "USERS_80_20",
    "ScaleProfile",
    "PROFILES",
    "bench_scale",
    "LOCATIONS",
    "run_throughput_delay_grid",
    "render_throughput_table",
    "render_delay_table",
    "render_saturation_schedule",
    "run_fig4_clock_sync",
    "render_fig4",
    "run_rtt_characterization",
    "render_rtt_table",
    "run_instance_variation",
    "render_instance_variation",
]

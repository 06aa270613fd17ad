"""Regenerate every figure of the paper's evaluation section.

The paper has five result figures (plus an in-text RTT table, the
saturation narrative and the instance-variation observation):

* **Fig. 2** — end-to-end throughput, 50/50 ratio, data size 300,
  1-4 slaves, 50-200 users, three placements;
* **Fig. 3** — throughput, 80/20 ratio, data size 600, 1-11 slaves,
  50-450 users, three placements;
* **Fig. 4** — clock difference of two instances over 20 minutes,
  NTP once vs. every second;
* **Fig. 5** — average relative replication delay for the Fig. 2 sweep;
* **Fig. 6** — average relative replication delay for the Fig. 3 sweep.

Figs. 2+5 (and 3+6) come from the *same* runs, so the grid is executed
once and rendered twice; :mod:`.report` names each rendering a
section.  ``ScaleProfile`` shrinks run durations and grid density so
the benches finish in minutes; ``full`` reproduces the paper's exact
grid and 35-minute runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..cloud.clock import LocalClock
from ..cloud.instance import SMALL, draw_instance_hardware
from ..cloud.network import Network, PAPER_LATENCY
from ..cloud.ntp import NtpDaemon
from ..cloud.regions import MASTER_PLACEMENT
from ..metrics import summarize
from ..obs.analyze import detect_knee
from ..sim import RandomStreams, Simulator
from ..workloads.cloudstone import Phases
from .config import LocationConfig, PAPER_50_50, PAPER_80_20
from .sweeps import (SweepResult, USERS_50_50, USERS_80_20, max_throughput,
                     run_grid, saturation_point)

__all__ = ["ScaleProfile", "bench_scale", "run_throughput_delay_grid",
           "render_throughput_table", "render_delay_table",
           "run_fig4_clock_sync", "render_fig4",
           "run_rtt_characterization", "render_rtt_table",
           "run_instance_variation", "render_instance_variation",
           "render_saturation_schedule", "LOCATIONS", "PROFILES"]

LOCATIONS = (LocationConfig.SAME_ZONE, LocationConfig.DIFFERENT_ZONE,
             LocationConfig.DIFFERENT_REGION)


@dataclass(frozen=True)
class ScaleProfile:
    """How much of the paper's grid a bench run covers."""

    name: str
    time_factor: float           # applied to the 35-minute phases
    baseline_duration: float
    slaves_50_50: tuple[int, ...]
    users_50_50: tuple[int, ...]
    slaves_80_20: tuple[int, ...]
    users_80_20: tuple[int, ...]

    @property
    def phases(self) -> Phases:
        return Phases().scaled(self.time_factor)


PROFILES = {
    "quick": ScaleProfile(
        "quick", time_factor=0.05, baseline_duration=20.0,
        slaves_50_50=(1, 2, 4), users_50_50=(50, 100, 150, 200),
        slaves_80_20=(1, 4, 11), users_80_20=(100, 250, 450)),
    "standard": ScaleProfile(
        "standard", time_factor=0.1, baseline_duration=30.0,
        slaves_50_50=(1, 2, 3, 4), users_50_50=(50, 100, 150, 175, 200),
        slaves_80_20=(1, 2, 4, 6, 8, 10, 11),
        users_80_20=(50, 150, 250, 350, 450)),
    "full": ScaleProfile(
        "full", time_factor=1.0, baseline_duration=60.0,
        slaves_50_50=(1, 2, 3, 4), users_50_50=USERS_50_50,
        slaves_80_20=tuple(range(1, 12)), users_80_20=USERS_80_20),
}


def bench_scale() -> ScaleProfile:
    """Profile selected by the ``REPRO_SCALE`` environment variable
    (``quick`` default; ``standard``; ``full`` = the paper's grid)."""
    name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(f"REPRO_SCALE must be one of "
                         f"{sorted(PROFILES)}, got {name!r}") from None


# ------------------------------------------------------- Figs 2/3 + 5/6
def run_throughput_delay_grid(ratio: str, location: LocationConfig,
                              profile: ScaleProfile,
                              seed: int = 0) -> list[SweepResult]:
    """Run one sub-figure's grid (``ratio`` is '50/50' or '80/20').

    The same runs feed the throughput figure (2 or 3) and the delay
    figure (5 or 6).
    """
    if ratio == "50/50":
        factory, slaves, users = (PAPER_50_50, profile.slaves_50_50,
                                  profile.users_50_50)
    elif ratio == "80/20":
        factory, slaves, users = (PAPER_80_20, profile.slaves_80_20,
                                  profile.users_80_20)
    else:
        raise ValueError(f"ratio must be '50/50' or '80/20', got {ratio!r}")
    return run_grid(factory, location, slaves, users, profile.phases,
                    seed=seed, baseline_duration=profile.baseline_duration)


def render_throughput_table(grids: list[SweepResult], title: str) -> str:
    """Fig. 2/3-style table: rows = user counts, one column per slave
    count, cells = end-to-end throughput (operations per second)."""
    return _render_metric_table(
        grids, title, lambda result: f"{result.throughput:8.1f}")


def render_delay_table(grids: list[SweepResult], title: str) -> str:
    """Fig. 5/6-style table: average relative replication delay (ms).

    The paper plots these on a log axis spanning 10^0..10^6 ms.
    """
    def cell(result):
        delay = result.relative_delay_ms
        if delay is None:
            return "     n/a"
        return f"{max(delay, 0.01):8.1f}"
    return _render_metric_table(grids, title, cell)


def _render_metric_table(grids, title, cell) -> str:
    users = grids[0].users
    lines = [title]
    header = "users  " + " ".join(f"{g.n_slaves:3d}-slave" for g in grids)
    lines.append(header)
    for row_index, n_users in enumerate(users):
        cells = " ".join(cell(g.results[row_index]) for g in grids)
        lines.append(f"{n_users:5d}  {cells}")
    return "\n".join(lines)


def render_saturation_schedule(grids: list[SweepResult],
                               title: str) -> str:
    """The §IV-A narrative: per slave count, the observed maximum
    throughput, the saturation point, the fitted knee (linear limit +
    capacity intersection, see :mod:`repro.obs.analyze.knee`), and
    which tier saturated at the heaviest load."""
    lines = [title, "slaves  max-tput@users  saturation-point  "
             "linear-limit  knee-users  saturated  bottleneck"]
    for sweep in grids:
        best_users, best_tput = max_throughput(sweep)
        saturation = saturation_point(sweep)
        heaviest = sweep.results[-1]
        knee = detect_knee(sweep.users, sweep.throughputs)
        knee_text = (f"{knee.knee_users:10.1f}" if knee.knee_users
                     is not None else "       n/a")
        lines.append(f"{sweep.n_slaves:6d}  {best_tput:8.1f}@{best_users:<5d}"
                     f"  {str(saturation):>16s}  "
                     f"{knee.linear_limit_users:12d}  {knee_text}  "
                     f"{heaviest.saturated_resource:>9s}  "
                     f"{heaviest.bottleneck:>10s}")
    return "\n".join(lines)


# ------------------------------------------------------------------ Fig 4
def run_fig4_clock_sync(duration: float = 1200.0,
                        sample_period: float = 10.0,
                        seed: int = 0) -> dict[str, list[float]]:
    """Reproduce Fig. 4: |clock difference| (ms) of two instances over
    20 minutes, under the paper's two NTP policies.

    The pair is pinned to the paper's observed anecdote: ~7 ms initial
    difference and ~36 ppm relative drift (7 -> 50 ms over 20 min).
    """
    if not 0 < sample_period <= duration:
        raise ValueError(f"need 0 < sample_period <= duration, got "
                         f"sample_period={sample_period!r}, "
                         f"duration={duration!r}")
    series: dict[str, list[float]] = {}
    for policy, period in (("sync_once", None), ("sync_every_second", 1.0)):
        sim = Simulator()
        streams = RandomStreams(seed)
        clock_a = LocalClock(sim, offset=0.004, drift_rate=18e-6)
        clock_b = LocalClock(sim, offset=-0.003, drift_rate=-18e-6)
        if period is not None:
            NtpDaemon(sim, clock_a, streams, period=period,
                      stream_name="ntp.a")
            NtpDaemon(sim, clock_b, streams, period=period,
                      stream_name="ntp.b")
        samples: list[float] = []

        def sampler(sim, samples=samples):
            while True:
                yield sim.timeout(sample_period)
                samples.append(abs(clock_a.difference(clock_b)) * 1000.0)

        sim.process(sampler(sim))
        sim.run(until=duration)
        series[policy] = samples
    return series


def render_fig4(series: dict[str, list[float]]) -> str:
    """Fig. 4 as summary rows, then the paper's reference values."""
    lines = ["policy              first_ms  last_ms  median_ms  std_ms"]
    for policy, samples in series.items():
        stats = summarize(samples)
        lines.append(f"{policy:18s} {samples[0]:9.2f} {samples[-1]:8.2f} "
                     f"{stats.median:10.2f} {stats.std:7.2f}")
    lines.append("paper reference: sync-once median 28.23 ms (std 12.31), "
                 "7 -> 50 ms; every-second median 3.30 ms (std 1.19)")
    return "\n".join(lines)


# ------------------------------------------------------------- RTT table
def run_rtt_characterization(probes: int = 1200,
                             seed: int = 0) -> dict[str, float]:
    """§IV-B.2: median 1/2 round-trip (ms) per location configuration
    (paper: 16 / 21 / 173 ms), ping once a second for 20 minutes."""
    if probes < 1:
        raise ValueError(f"need probes >= 1, got probes={probes!r}")
    sim = Simulator()
    network = Network(sim, RandomStreams(seed), PAPER_LATENCY)
    half_rtts: dict[str, float] = {}
    for location in LOCATIONS:
        destination = location.slave_placement()
        if location is LocationConfig.SAME_ZONE:
            # ping between two distinct hosts in the master's zone: one
            # same-zone leg per probe, counted twice
            z = network.streams.variates("rtt.same_zone", "normal", probes)
            samples = 2 * (PAPER_LATENCY.same_zone_ms
                           * np.exp(0.0 + PAPER_LATENCY.jitter_sigma * z))
        else:
            samples = network.ping(MASTER_PLACEMENT, destination, probes)
        half_rtts[location.value] = float(np.median(samples)) / 2.0
    return half_rtts


def render_rtt_table(half_rtts: dict[str, float]) -> str:
    lines = ["location           half-RTT-ms  (paper)"]
    paper = {"same_zone": 16.0, "different_zone": 21.0,
             "different_region": 173.0}
    for location, measured in half_rtts.items():
        lines.append(f"{location:18s} {measured:11.1f}  "
                     f"({paper[location]:.0f})")
    return "\n".join(lines)


# ------------------------------------------- instance performance variation
def run_instance_variation(launches: int = 4000,
                           seed: int = 0) -> dict[str, float]:
    """§IV-A: the coefficient of variation of small-instance CPU
    performance (Schad et al. report ~21 %)."""
    if launches < 1:
        raise ValueError(f"need launches >= 1, got launches={launches!r}")
    models, noises = draw_instance_hardware(RandomStreams(seed), SMALL,
                                            count=launches)
    arr = np.array([model.speed_factor for model in models]) * noises
    return {
        "cov": float(arr.std() / arr.mean()),
        "mean_speed": float(arr.mean()),
        "launches": float(launches),
        "distinct_models": float(len({model.name for model in models})),
    }


def render_instance_variation(stats: dict[str, float]) -> str:
    return (f"small-instance CPU lottery over {int(stats['launches'])} "
            f"launches: CoV = {stats['cov'] * 100:.1f}% "
            f"(paper cites ~21%), mean relative speed "
            f"{stats['mean_speed']:.2f}, "
            f"{int(stats['distinct_models'])} physical CPU models")

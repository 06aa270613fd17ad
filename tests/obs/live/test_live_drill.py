"""End-to-end wiring: the live plane attached to real runs.

A reduced drill (short phases, two faults) keeps these fast while
still exercising the full path: monitor → pipeline → engine →
incidents → detection scorecard, plus the watchboard on a plain
experiment cell.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.chaos.drill import DrillConfig, run_drill
from repro.chaos.faults import Fault, FaultSchedule
from repro.experiments.config import PAPER_50_50, LocationConfig
from repro.experiments.runner import run_experiment
from repro.obs import Observability
from repro.obs.live import (LivePipeline, LiveSession, Watchboard,
                            default_slo_spec, write_incidents)
from repro.workloads.cloudstone import Phases


def _mini_config(seed=7):
    return DrillConfig(
        seed=seed, n_users=8, n_slaves=2, data_size=80,
        baseline_duration=10.0,
        phases=Phases(ramp_up=5.0, steady=60.0, ramp_down=5.0),
        schedule=FaultSchedule([
            Fault(at=10.0, kind="slave-slow", target="slave-1",
                  duration=20.0, severity=0.1),
            Fault(at=50.0, kind="master-crash"),
        ]),
        drain_timeout=30.0)


def _run_mini(seed=7):
    return run_drill(_mini_config(seed),
                     observe=Observability(monitor_period=None),
                     slo=LiveSession(default_slo_spec()))


def test_drill_with_slo_scores_detection_and_reports(tmp_path):
    result = _run_mini()
    incidents = result.incidents
    assert incidents is not None
    detection = incidents["detection"]
    assert detection["scored"] == 2
    # Both mapped faults must be detected with bounded latency.
    for row in detection["faults"]:
        assert row["detected"], f"missed {row['kind']}"
        assert row["time_to_detect_s"] <= 30.0
    crash_row = next(row for row in detection["faults"]
                     if row["kind"] == "master-crash")
    assert crash_row["matched_rule"] == "master-unavailable"
    # The drill report carries the SLO section, inside the digest.
    slo_section = result.report["slo"]
    assert slo_section["incidentsDigest"] == incidents["digest"]
    assert slo_section["detected"] == detection["detected"]
    assert slo_section["spec"]["digest"] == \
        default_slo_spec().digest()
    # The document round-trips byte-stably through the writer.
    path = tmp_path / "incidents.json"
    write_incidents(incidents, path)
    assert json.loads(path.read_text()) == incidents


def test_drill_with_slo_is_deterministic():
    first, second = _run_mini(), _run_mini()
    assert first.incidents == second.incidents
    assert first.report == second.report


def test_drill_without_slo_has_no_slo_section():
    result = run_drill(_mini_config(),
                       observe=Observability(monitor_period=None))
    assert "slo" not in result.report
    assert result.incidents is None


@pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
def test_watchboard_rejects_a_bad_interval(interval):
    with pytest.raises(ValueError, match="period"):
        Watchboard(LivePipeline(), interval=interval)


def test_experiment_cell_watchboard_is_deterministic():
    def run():
        config = PAPER_50_50(
            LocationConfig.SAME_ZONE, 1, 10,
            Phases().scaled(0.02), seed=0, baseline_duration=5.0)
        session = LiveSession(default_slo_spec(),
                              watch_interval=15.0)
        return run_experiment(config, slo=session)

    first, second = run(), run()
    assert first.watch_text and first.watch_text == second.watch_text
    assert "── watch" in first.watch_text
    assert first.incidents == second.incidents
    # A healthy same-zone cell must not page.
    pages = [incident for incident in first.incidents["incidents"]
             if incident["severity"] == "page"]
    assert pages == []

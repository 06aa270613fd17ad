"""Recovery drills: report contract, determinism, analyze wiring."""

import json
import math

import pytest

from repro.chaos import (DrillConfig, Fault, FaultSchedule,
                         FailoverController, ReplicaHealthPolicy,
                         default_schedule, render_report_text, run_drill)
from repro.cloud import MASTER_PLACEMENT
from repro.obs import Observability
from repro.workloads.cloudstone import Phases

#: A scaled-down drill so each test runs in a couple of sim minutes.
SMALL_PHASES = Phases(ramp_up=5.0, steady=50.0, ramp_down=5.0)


def small_config(schedule, **overrides):
    kwargs = dict(seed=5, n_users=8, n_slaves=2, data_size=60,
                  think_time_mean=3.0, baseline_duration=8.0,
                  phases=SMALL_PHASES, monitor_period=1.0,
                  schedule=schedule)
    kwargs.update(overrides)
    return DrillConfig(**kwargs)


def crash_schedule():
    """Degrade a slave (visible apply backlog), stall both channels,
    then kill the master: acknowledged commits die with it, so the
    loss window is measurable."""
    return FaultSchedule([
        Fault(at=10.0, kind="slave-slow", target="slave-2",
              duration=15.0, severity=0.15),
        Fault(at=38.0, kind="repl-stall", target="slave-1",
              duration=15.0),
        Fault(at=38.5, kind="repl-stall", target="slave-2",
              duration=15.0),
        Fault(at=40.2, kind="master-crash"),
    ])


#: Periods an actor must refuse: zero used to spin forever at one sim
#: instant (``DrillConfig(detect_period=0)``), NaN to fail mid-run.
BAD_PERIODS = [0.0, -0.5, math.nan, math.inf]


@pytest.mark.parametrize("period", BAD_PERIODS)
def test_failover_controller_rejects_a_bad_period(sim, manager, master,
                                                  period):
    proxy = manager.build_proxy(MASTER_PLACEMENT)
    with pytest.raises(ValueError, match="period"):
        FailoverController(sim, manager, proxy, period=period)


@pytest.mark.parametrize("period", BAD_PERIODS)
def test_health_policy_rejects_a_bad_period(sim, manager, master,
                                            period):
    proxy = manager.build_proxy(MASTER_PLACEMENT)
    with pytest.raises(ValueError, match="period"):
        ReplicaHealthPolicy(sim, manager, proxy, period=period)


@pytest.fixture(scope="module")
def crash_drill():
    return run_drill(small_config(crash_schedule()))


def test_recovery_report_failover_fields(crash_drill):
    report = crash_drill.report
    failover = report["failover"]
    assert failover is not None
    assert failover["promoted"] in ("slave-1", "slave-2")
    # The controller polls every detect_period seconds; the crash is
    # off the poll grid, so detection takes a positive fraction of it.
    assert 0.0 < failover["time_to_detect_s"] <= 0.5
    assert failover["time_to_recover_s"] >= failover["time_to_detect_s"]
    assert failover["lost_commits"] == (failover["dead_binlog_head"]
                                        - failover["candidate_received"])
    assert failover["lost_commits"] >= 0
    assert crash_drill.deployment.manager.master.name == failover["promoted"]


def test_recovery_report_sections(crash_drill):
    report = crash_drill.report
    for key in ("seed", "config", "schedule", "applied", "failover",
                "staleness", "driver", "routing", "pool", "consistency",
                "observability", "digest"):
        assert key in report, key
    assert report["schedule"]["faults"] == 4
    assert report["staleness"]["per_slave_max_s"]["slave-2"] > 0.0
    assert len(report["schedule"]["digest"]) == 64
    assert report["driver"]["operations"] > 0
    assert report["staleness"]["workload_max_s"] > 0.0
    # Writes continued on the promoted master after recovery.
    assert report["consistency"]["drained"] is True
    assert report["consistency"]["consistent"] is True
    assert report["observability"] is None  # ran unobserved


def test_crash_drill_counters_are_exact(crash_drill):
    """Counters the report's contract tests only bound: each pinned to
    its seeded value, so an off-by-one anywhere under them shows."""
    report, manager = crash_drill.report, crash_drill.deployment.manager
    assert report["routing"] == {"evictions": 0, "readmissions": 0,
                                 "reads_routed": 67, "writes_routed": 0}
    assert report["failover"]["dead_binlog_head"] == 713
    assert {slave.name: (slave.events_dropped, slave.bytes_received,
                         slave.events_applied)
            for slave in manager.slaves} == {"slave-1": (0, 23795, 172)}
    assert manager.master.name == "slave-2"
    assert manager.master.engine.statements_executed == 245


def test_report_text_rendering(crash_drill):
    text = render_report_text(crash_drill.report)
    assert "time to detect" in text
    assert "lost commits" in text
    assert crash_drill.report["digest"] in text


def test_same_seed_reports_are_byte_identical():
    schedule = FaultSchedule([
        Fault(at=10.0, kind="repl-stall", target="slave-1",
              duration=5.0),
        Fault(at=20.0, kind="slave-slow", target="slave-2",
              duration=10.0, severity=0.4),
    ])
    config = small_config(schedule, seed=9)

    def canonical():
        report = run_drill(config).report
        return json.dumps(report, sort_keys=True,
                          separators=(",", ":"))

    assert canonical() == canonical()


def test_default_schedule_covers_every_kind():
    kinds = {fault.kind for fault in default_schedule()}
    assert kinds == {"master-crash", "slave-crash", "partition",
                     "latency", "slave-slow", "repl-stall"}
    # Canonical drill wants two slaves and known regions.
    default_schedule().validate_targets(
        ["slave-1", "slave-2"], region_names=["us-east-1", "eu-west-1"])


def test_analyze_attributes_injected_slave_slow():
    """A drill whose only fault is a degraded slave CPU must come out
    of ``repro analyze`` blamed on that slave's apply thread."""
    from repro.obs.analyze import (attribute_bottleneck, build_waterfalls,
                                   from_session, phase_windows,
                                   signals_from_trace)
    schedule = FaultSchedule([
        Fault(at=2.0, kind="slave-slow", target="slave-1",
              duration=55.0, severity=0.08),
    ])
    observe = Observability(monitor_period=None)
    result = run_drill(small_config(schedule, seed=3, n_users=12,
                                    think_time_mean=2.0),
                       observe=observe)
    data = from_session(observe)
    signals = signals_from_trace(data, phase_windows(data),
                                 build_waterfalls(data))
    diagnosis = attribute_bottleneck(signals)
    assert diagnosis.resource == "slave-cpu"
    assert diagnosis.evidence["worst_slave"] == "slave-1"
    assert result.report["observability"]["droppedSpans"] == 0

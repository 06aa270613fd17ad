"""Alert-engine hysteresis: the edge cases that page people at 3am.

The engine is driven headless here — publish into a bare pipeline,
call ``evaluate`` at chosen sim times — so every state transition is
pinned to an exact time with no kernel in the way.
"""

from __future__ import annotations

import math

import pytest

from repro.obs.live.alerts import AlertEngine
from repro.obs.live.slo import AlertRule, SLOSpec
from repro.obs.live.streams import LivePipeline


def _engine(*rules, period_s=0.5):
    pipeline = LivePipeline()
    spec = SLOSpec(name="test", rules=tuple(rules),
                   period_s=period_s)
    return pipeline, AlertEngine(pipeline, spec)


def _threshold(name="lag", stream="s", threshold=10.0, for_s=2.0,
               clear=5.0, clear_for_s=3.0, **kw):
    return AlertRule(name=name, kind="threshold", stream=stream,
                     threshold=threshold, for_s=for_s, clear=clear,
                     clear_for_s=clear_for_s, **kw)


@pytest.mark.parametrize("period_s", [math.nan, math.inf])
def test_engine_rejects_a_non_finite_period(period_s):
    # The spec's own check (period_s > 0) lets these through.
    with pytest.raises(ValueError, match="period"):
        _engine(_threshold(), period_s=period_s)


def test_fires_only_after_breach_held_for_duration():
    pipeline, engine = _engine(_threshold())
    pipeline.publish("s", 20.0, 0.0)
    engine.evaluate(0.0)          # pending starts here
    engine.evaluate(1.9)
    assert engine.active() == []
    engine.evaluate(2.0)          # held exactly for_s: fires
    assert engine.active() == [("lag", "s")]
    assert engine.fired == 1
    incident = engine.incidents[0]
    assert incident.fired_at_s == 2.0
    assert incident.open


def test_dip_below_clear_resets_the_pending_clock():
    pipeline, engine = _engine(_threshold())
    pipeline.publish("s", 20.0, 0.0)
    engine.evaluate(0.0)
    pipeline.publish("s", 1.0, 1.0)   # recovered before for_s
    engine.evaluate(1.0)
    pipeline.publish("s", 20.0, 1.5)  # breaches again
    engine.evaluate(1.5)
    engine.evaluate(3.0)              # only 1.5s into the NEW breach
    assert engine.active() == []
    engine.evaluate(3.5)
    assert engine.active() == [("lag", "s")]


def test_between_bounds_neither_fires_nor_resolves():
    pipeline, engine = _engine(_threshold())
    # Idle + value between clear (5) and threshold (10): stays idle.
    pipeline.publish("s", 7.0, 0.0)
    engine.evaluate(0.0)
    engine.evaluate(10.0)
    assert engine.active() == []
    # Now fire it, then park the value between the bounds: the alert
    # must hold (no resolve, no flapping).
    pipeline.publish("s", 20.0, 11.0)
    engine.evaluate(11.0)
    engine.evaluate(13.0)
    assert engine.active() == [("lag", "s")]
    pipeline.publish("s", 7.0, 14.0)
    for t in (14.0, 20.0, 30.0):
        engine.evaluate(t)
    assert engine.active() == [("lag", "s")]
    assert engine.resolved == 0


def test_rebreach_during_clearing_resets_the_resolve_clock():
    pipeline, engine = _engine(_threshold())
    pipeline.publish("s", 20.0, 0.0)
    engine.evaluate(0.0)
    engine.evaluate(2.0)              # firing
    pipeline.publish("s", 1.0, 10.0)
    engine.evaluate(10.0)             # clearing starts
    pipeline.publish("s", 20.0, 12.0)
    engine.evaluate(12.0)             # re-breach: clearing aborted
    pipeline.publish("s", 1.0, 13.0)
    engine.evaluate(13.0)             # clearing restarts here
    engine.evaluate(15.9)
    assert engine.active() == [("lag", "s")]
    engine.evaluate(16.0)             # held clear_for_s from 13.0
    assert engine.active() == []
    assert engine.resolved == 1
    incident = engine.incidents[0]
    assert incident.resolved_at_s == 16.0
    assert not incident.open
    assert incident.peak == 20.0


def test_absence_rule_arms_on_first_sample():
    rule = AlertRule(name="deadman", kind="absence",
                     stream="heartbeat.beat", threshold=3.0,
                     clear_for_s=2.0)
    pipeline, engine = _engine(rule)
    # Never published: not absent, however long we wait.
    engine.evaluate(100.0)
    assert engine.active() == []
    pipeline.publish("heartbeat.beat", 1.0, 100.0)
    engine.evaluate(102.0)            # silence 2.0 <= 3.0
    assert engine.active() == []
    engine.evaluate(103.5)            # silence 3.5 > 3.0: fires
    assert engine.active() == [("deadman", "heartbeat.beat")]
    # Beats resume; resolve after clear_for_s of fresh silence ≤ 3.
    pipeline.publish("heartbeat.beat", 2.0, 104.0)
    engine.evaluate(104.0)
    engine.evaluate(105.9)
    assert engine.active() == [("deadman", "heartbeat.beat")]
    pipeline.publish("heartbeat.beat", 3.0, 106.0)
    engine.evaluate(106.0)
    assert engine.active() == []


def test_burn_rate_needs_both_windows():
    rule = AlertRule(name="burn", kind="burn-rate", stream="s",
                     objective=1.0, threshold=0.5, fast_window_s=5.0,
                     slow_window_s=20.0)
    pipeline, engine = _engine(rule)
    # 20 seconds of healthy samples, then a 4-second violation burst:
    # fast window saturates, slow window stays diluted — no page.
    for tick in range(20):
        pipeline.publish("s", 0.0, float(tick))
        engine.evaluate(float(tick))
    for tick in range(4):
        t = 20.0 + tick
        pipeline.publish("s", 5.0, t)
        engine.evaluate(t)
    assert engine.active() == []
    # Keep violating until the slow window crosses too.
    for tick in range(16):
        t = 24.0 + tick
        pipeline.publish("s", 5.0, t)
        engine.evaluate(t)
    assert engine.active() == [("burn", "s")]


def test_wildcard_rule_keeps_independent_state_per_stream():
    pipeline, engine = _engine(
        _threshold(stream="slave.*.lag", for_s=0.0, clear_for_s=0.0))
    pipeline.publish("slave.a.lag", 20.0, 0.0)
    pipeline.publish("slave.b.lag", 1.0, 0.0)
    engine.evaluate(0.0)
    assert engine.active() == [("lag", "slave.a.lag")]
    pipeline.publish("slave.b.lag", 30.0, 1.0)
    pipeline.publish("slave.a.lag", 1.0, 1.0)
    engine.evaluate(1.0)
    assert engine.active() == [("lag", "slave.b.lag")]
    assert engine.fired == 2 and engine.resolved == 1


def test_smoothed_threshold_ignores_isolated_spikes():
    rule = _threshold(threshold=0.5, smooth_tau_s=5.0, for_s=0.0,
                      clear=0.3, clear_for_s=0.0)
    pipeline, engine = _engine(rule)
    # One isolated spike in a calm series: the EWMA stays under the
    # bound (0.1 + (1 - e^-0.2) * 1.9 ≈ 0.44 < 0.5).
    for tick in range(10):
        pipeline.publish("s", 0.1, float(tick))
        engine.evaluate(float(tick))
    pipeline.publish("s", 2.0, 10.0)
    pipeline.publish("s", 0.1, 10.1)
    engine.evaluate(10.1)
    assert engine.active() == []
    # A sustained shift does page.
    for tick in range(30):
        t = 11.0 + tick
        pipeline.publish("s", 0.9, t)
        engine.evaluate(t)
    assert engine.active() == [("lag", "s")]


def test_evidence_snapshot_excludes_internal_streams():
    rule = _threshold(for_s=0.0, evidence=("s", "aux.*", "_slo.*"))
    pipeline, engine = _engine(rule)
    pipeline.publish("aux.one", 1.5, 0.0)
    pipeline.publish("s", 20.0, 0.0)
    engine.evaluate(0.0)
    (incident,) = engine.incidents
    assert incident.evidence == {"aux.one": 1.5, "s": 20.0}
    assert not any(name.startswith("_slo.")
                   for name in incident.evidence)

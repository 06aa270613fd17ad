"""SLO spec round-trips, validation, and digest stability."""

from __future__ import annotations

import json

import pytest

from repro.obs.live.slo import (AlertRule, SLOSpec, default_slo_spec,
                                load_slo_file)


def test_default_spec_round_trips_through_dict():
    spec = default_slo_spec()
    clone = SLOSpec.from_dict(spec.as_dict())
    assert clone == spec
    assert clone.digest() == spec.digest()


def test_digest_is_stable_and_content_sensitive():
    spec = default_slo_spec()
    assert spec.digest() == default_slo_spec().digest()
    retuned = SLOSpec.from_dict(spec.as_dict())
    record = retuned.as_dict()
    record["rules"][0]["threshold"] = 99.0
    assert SLOSpec.from_dict(record).digest() != spec.digest()


def test_load_slo_file(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(default_slo_spec().as_dict()))
    assert load_slo_file(path) == default_slo_spec()


def test_rule_validation_rejects_bad_fields():
    with pytest.raises(ValueError, match="kind"):
        AlertRule(name="r", kind="nope", stream="s", threshold=1.0)
    with pytest.raises(ValueError, match="comparison"):
        AlertRule(name="r", kind="threshold", stream="s",
                  threshold=1.0, comparison="ge")
    with pytest.raises(ValueError, match="severity"):
        AlertRule(name="r", kind="threshold", stream="s",
                  threshold=1.0, severity="meh")
    with pytest.raises(ValueError, match="needs a name"):
        AlertRule(name="", kind="threshold", stream="s",
                  threshold=1.0)
    with pytest.raises(ValueError, match="durations"):
        AlertRule(name="r", kind="threshold", stream="s",
                  threshold=1.0, for_s=-1.0)


def test_burn_rate_validation():
    with pytest.raises(ValueError, match="objective"):
        AlertRule(name="r", kind="burn-rate", stream="s",
                  threshold=0.5)
    with pytest.raises(ValueError, match="fraction"):
        AlertRule(name="r", kind="burn-rate", stream="s",
                  threshold=1.5, objective=1.0)
    with pytest.raises(ValueError, match="fast <= slow"):
        AlertRule(name="r", kind="burn-rate", stream="s",
                  threshold=0.5, objective=1.0, fast_window_s=60.0,
                  slow_window_s=5.0)


def test_absence_and_smoothing_validation():
    with pytest.raises(ValueError, match="absence"):
        AlertRule(name="r", kind="absence", stream="s",
                  threshold=0.0)
    with pytest.raises(ValueError, match="threshold rules only"):
        AlertRule(name="r", kind="absence", stream="s",
                  threshold=1.0, smooth_tau_s=5.0)
    with pytest.raises(ValueError, match="smooth_tau_s"):
        AlertRule(name="r", kind="threshold", stream="s",
                  threshold=1.0, smooth_tau_s=-2.0)


def test_spec_validation():
    rule = AlertRule(name="r", kind="threshold", stream="s",
                     threshold=1.0)
    with pytest.raises(ValueError, match="duplicate"):
        SLOSpec(name="spec", rules=(rule, rule))
    for period in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="period_s"):
            SLOSpec(name="spec", rules=(rule,), period_s=period)
    with pytest.raises(ValueError, match="unknown fields"):
        SLOSpec.from_dict({"name": "spec", "rules": [],
                           "surprise": 1})
    with pytest.raises(ValueError, match="unknown fields"):
        AlertRule.from_dict({"name": "r", "kind": "threshold",
                             "stream": "s", "threshold": 1.0,
                             "surprise": 1})

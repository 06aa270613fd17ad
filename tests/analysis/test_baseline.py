"""Baseline snapshots: byte-identical round-trips, count-aware
filtering, and the CLI flags that use them."""

import json

import pytest

from repro.analysis import (filter_new, fingerprint, load_baseline,
                            render_baseline, write_baseline)
from repro.analysis.findings import Finding
from repro.cli import main


def _finding(path="src/mod.py", line=3, rule="TNT001",
             message="nondet flows into scheduling"):
    return Finding(path=path, line=line, column=0, rule_id=rule,
                   message=message)


# ---------------------------------------------------------------------------
# Format stability.
# ---------------------------------------------------------------------------

def test_render_is_byte_identical_across_calls():
    findings = [_finding(), _finding(rule="TNT004", line=9,
                                     message="unordered output")]
    assert render_baseline(findings, "simtaint") == \
        render_baseline(list(findings), "simtaint")


def test_render_is_order_insensitive():
    first = _finding()
    second = _finding(rule="TNT004", line=9, message="unordered")
    assert render_baseline([first, second], "simtaint") == \
        render_baseline([second, first], "simtaint")


def test_write_then_load_round_trips(tmp_path):
    target = tmp_path / "baseline.json"
    findings = [_finding(), _finding()]
    write_baseline(str(target), findings, "simtaint")
    raw = target.read_bytes()
    assert raw.endswith(b"\n") and not raw.endswith(b"\n\n")
    allowed = load_baseline(str(target))
    assert allowed == {fingerprint(findings[0]): 2}
    # Writing the identical findings again produces identical bytes.
    again = tmp_path / "again.json"
    write_baseline(str(again), findings, "simtaint")
    assert again.read_bytes() == raw


def test_fingerprint_normalizes_path_separators():
    assert fingerprint(_finding(path="./src/mod.py")) == \
        fingerprint(_finding(path="src/mod.py"))


def test_load_rejects_malformed_documents(tmp_path):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps({"version": 99, "findings": {}}),
                      encoding="utf-8")
    with pytest.raises(ValueError):
        load_baseline(str(target))


# ---------------------------------------------------------------------------
# Count-aware filtering.
# ---------------------------------------------------------------------------

def test_filter_new_without_baseline_keeps_everything():
    findings = [_finding()]
    assert filter_new(findings, None) == findings


def test_filter_new_drops_covered_findings():
    findings = [_finding()]
    baseline = {fingerprint(findings[0]): 1}
    assert filter_new(findings, baseline) == []


def test_filter_new_is_count_aware():
    # Two occurrences frozen, a third identical one is new.
    findings = [_finding(), _finding(), _finding()]
    baseline = {fingerprint(findings[0]): 2}
    assert len(filter_new(findings, baseline)) == 1


def test_filter_new_flags_unknown_findings():
    known = _finding()
    fresh = _finding(rule="TNT002", message="env into telemetry")
    baseline = {fingerprint(known): 1}
    assert filter_new([known, fresh], baseline) == [fresh]


# ---------------------------------------------------------------------------
# CLI integration (--write-baseline / --baseline).
# ---------------------------------------------------------------------------

FIRE = """\
import time


def stamp(server):
    server.started_at = time.time()
"""


#: What ``taintcheck`` was: the gate narrowed to the TNT family, so
#: these also pin that baselines compose with ``--select``.
TAINT_GATE = ["check", "--select", "TNT"]


def test_cli_write_then_apply_baseline(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text(FIRE, encoding="utf-8")
    snapshot = tmp_path / "baseline.json"

    code = main(TAINT_GATE + [str(bad), "--write-baseline",
                              str(snapshot)])
    assert code == 0
    assert "wrote baseline of 1 finding" in capsys.readouterr().out

    # Unchanged findings are frozen: exit 0, nothing reported.
    code = main(TAINT_GATE + [str(bad), "--baseline", str(snapshot)])
    assert code == 0
    assert "no findings" in capsys.readouterr().out

    # The snapshot round-trips byte-identically.
    again = tmp_path / "again.json"
    code = main(TAINT_GATE + [str(bad), "--write-baseline",
                              str(again)])
    capsys.readouterr()
    assert code == 0
    assert again.read_bytes() == snapshot.read_bytes()


def test_cli_baseline_fails_on_new_findings(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text(FIRE, encoding="utf-8")
    snapshot = tmp_path / "baseline.json"
    code = main(TAINT_GATE + [str(bad), "--write-baseline",
                              str(snapshot)])
    assert code == 0
    capsys.readouterr()

    bad.write_text(FIRE + """\


def stamp_two(server):
    server.stopped_at = time.time()
""", encoding="utf-8")
    code = main(TAINT_GATE + [str(bad), "--baseline", str(snapshot)])
    out = capsys.readouterr().out
    assert code == 1
    # Only the NEW finding is reported.
    assert "simtaint: 1 finding" in out


def test_cli_unreadable_baseline_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("x = 1\n", encoding="utf-8")
    code = main(TAINT_GATE + [str(bad), "--baseline",
                              str(tmp_path / "missing.json")])
    assert code == 2
    assert "error" in capsys.readouterr().out

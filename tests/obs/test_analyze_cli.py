"""`repro analyze` / `repro cell --format json` end-to-end tests."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def trace_dirs(tmp_path_factory):
    """Two same-seed trace runs (the determinism baseline)."""
    root = tmp_path_factory.mktemp("traces")
    dirs = [str(root / "a"), str(root / "b")]
    for directory in dirs:
        code = main(["cell", "--slaves", "1", "--users", "5",
                     "--seed", "7", "--out", directory])
        assert code == 0
    return dirs


def run_analyze(capsys, *argv):
    code = main(["analyze", *argv])
    return code, capsys.readouterr().out


def test_analyze_text_report(trace_dirs, capsys):
    code, out = run_analyze(capsys, "--dir", trace_dirs[0])
    assert code == 0
    assert "staleness waterfall — slave-1" in out
    assert "telescoping:" in out and "(ok)" in out
    assert "reconciliation:" in out and "within tolerance" in out
    assert "bottleneck:" in out


def test_analyze_json_is_byte_deterministic(trace_dirs, capsys):
    outputs = []
    for directory in trace_dirs:
        code, out = run_analyze(capsys, "--dir", directory,
                                "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["telescoping"]["ok"] is True
    assert report["health"]["droppedSpans"] == 0
    assert abs(report["health"]["unattributedSimTime"]) <= 1e-6
    assert report["bottleneck"]["resource"] in (
        "master-cpu", "slave-cpu", "pool", "network", "none")
    assert report["waterfall"]["slave-1"]["events"] > 0


def test_analyze_missing_directory(tmp_path, capsys):
    code, out = run_analyze(capsys, "--dir", str(tmp_path / "nope"))
    assert code == 1
    assert "no spans.jsonl" in out


def test_analyze_refuses_dropped_spans(tmp_path, capsys):
    """A trace with dropped span ends must fail loudly, not produce a
    plausible-looking waterfall."""
    from repro.obs import Observability
    from repro.sim import Simulator
    sim = Simulator()
    observe = Observability().attach(sim)
    leaked = observe.tracer.open_span("leak.me")
    observe.finalize()
    leaked.end()            # late end -> dropped
    assert observe.tracer.dropped == 1
    observe.write_artifacts(str(tmp_path))
    code, out = run_analyze(capsys, "--dir", str(tmp_path))
    assert code == 1
    assert "dropped 1 late span end" in out


def test_analyze_refuses_unattributed_residue(trace_dirs, tmp_path,
                                              capsys):
    """Tampered meta (profiler residue) must also refuse analysis."""
    import os
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(trace_dirs[0], broken)
    os.remove(broken / "trace.json")
    spans_path = broken / "spans.jsonl"
    lines = spans_path.read_text().splitlines()
    meta = json.loads(lines[0])
    assert meta["kind"] == "meta"
    meta["unattributedSimTime"] = 0.5
    lines[0] = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    spans_path.write_text("\n".join(lines) + "\n")
    code, out = run_analyze(capsys, "--dir", str(broken))
    assert code == 1
    assert "unattributed" in out


def test_trace_json_format(tmp_path, capsys):
    code = main(["cell", "--slaves", "1", "--users", "5", "--seed",
                 "7", "--out", str(tmp_path), "--format", "json"])
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["cell"]["slaves"] == 1
    assert document["cell"]["users"] == 5
    assert document["droppedSpans"] == 0
    assert document["spans"] > 0
    assert document["result"]["throughput"] > 0
    assert document["result"]["bottleneck"] in (
        "master-cpu", "slave-cpu", "pool", "network", "none")
    assert set(document["artifacts"]) == {
        "trace.json", "spans.jsonl", "metrics.jsonl", "profile.txt"}
    assert document["profile"]["rows"]


def test_spans_jsonl_carries_health_meta(trace_dirs):
    first_line = open(
        f"{trace_dirs[0]}/spans.jsonl", encoding="utf-8").readline()
    meta = json.loads(first_line)
    assert meta["kind"] == "meta"
    assert meta["droppedSpans"] == 0
    assert "unattributedSimTime" in meta
    assert "finalSimTime" in meta

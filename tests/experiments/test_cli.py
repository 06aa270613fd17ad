"""CLI tests (fast subcommands run for real; grids use tiny cells)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_location_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig2", "--location", "moon"])


def test_fig4_command(capsys):
    assert main(["fig4", "--duration", "300"]) == 0
    out = capsys.readouterr().out
    assert "sync_once" in out
    assert "sync_every_second" in out


def test_rtt_command(capsys):
    assert main(["rtt", "--probes", "200"]) == 0
    out = capsys.readouterr().out
    assert "different_region" in out
    assert "(173)" in out


def test_variation_command(capsys):
    assert main(["variation", "--launches", "500"]) == 0
    assert "CoV" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["fig4", "--duration", "0"], "0 < sample_period <= duration"),
    (["rtt", "--probes", "0"], "probes >= 1"),
    (["rtt", "--probes", "-3"], "probes >= 1"),
    (["variation", "--launches", "0"], "launches >= 1"),
])
def test_bad_figure_inputs_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"repro {argv[0]}: error: ")
    assert message in out
    assert "nan" not in out


def test_cell_command(capsys):
    assert main(["cell", "--ratio", "50/50", "--slaves", "1",
                 "--users", "10", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "throughput:" in out
    assert "saturated resource:" in out


def test_cell_zero_slaves(capsys):
    assert main(["cell", "--slaves", "0", "--users", "5"]) == 0
    assert "n/a" in capsys.readouterr().out


def test_trace_command(tmp_path, capsys):
    """`repro trace` runs an observed cell and writes the artifacts."""
    import json
    out_dir = tmp_path / "traces"
    assert main(["trace", "--slaves", "1", "--users", "5",
                 "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "spans recorded:" in out
    assert "kernel profile" in out
    doc = json.loads((out_dir / "trace.json").read_text())
    names = {event.get("name") for event in doc["traceEvents"]}
    assert {"driver.request", "repl.ship", "repl.apply"} <= names
    assert doc["kernelProfile"]["rows"]
    assert (out_dir / "spans.jsonl").exists()
    assert (out_dir / "metrics.jsonl").exists()
    assert (out_dir / "profile.txt").exists()


def test_report_command(tmp_path, monkeypatch):
    """End-to-end report run against a micro profile."""
    from repro.experiments.figures import ScaleProfile, _PROFILES
    micro = ScaleProfile("micro", time_factor=0.02, baseline_duration=10.0,
                         slaves_50_50=(1,), users_50_50=(10,),
                         slaves_80_20=(1,), users_80_20=(10,))
    monkeypatch.setitem(_PROFILES, "quick", micro)
    out_path = tmp_path / "run.md"
    assert main(["report", "--output", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("# Reproduction run")
    assert "Figs. 2/5" in text and "Figs. 3/6" in text
    assert "Clock synchronization" in text
    assert "Half-RTT" in text
    assert "Instance variation" in text


def test_parser_defaults():
    args = build_parser().parse_args(["fig2"])
    assert args.ratio == "50/50"
    assert args.scale == "quick"
    assert args.location is None
    args = build_parser().parse_args(["cell"])
    assert args.slaves == 2 and args.users == 100

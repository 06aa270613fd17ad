"""CLI tests (fast subcommands run for real; grids use tiny cells)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_location_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["cell", "--location", "moon"])


def test_fig4_command(capsys):
    assert main(["report", "--section", "fig4_clock_sync"]) == 0
    out = capsys.readouterr().out
    assert "sync_once" in out
    assert "sync_every_second" in out


def test_rtt_command(capsys):
    assert main(["report", "--section", "rtt_characterization"]) == 0
    out = capsys.readouterr().out
    assert "different_region" in out
    assert "(173)" in out


def test_variation_command(capsys):
    assert main(["report", "--section", "instance_variation"]) == 0
    assert "CoV" in capsys.readouterr().out


def test_unknown_section_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["report", "--section", "fig9_same_zone"])
    assert exit_info.value.code == 2
    assert "fig9_same_zone" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fig2", "fig3", "fig5", "fig6",
                                     "fig4", "rtt", "variation",
                                     "saturation", "bench"])
def test_retired_subcommands_no_longer_parse(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command])
    assert exit_info.value.code == 2


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


@pytest.fixture
def micro(monkeypatch):
    """The ``quick`` scale shrunk to one 10-user, 1-slave cell per grid."""
    from repro.experiments import PROFILES, ScaleProfile
    profile = ScaleProfile("micro", time_factor=0.02,
                           baseline_duration=10.0,
                           slaves_50_50=(1,), users_50_50=(10,),
                           slaves_80_20=(1,), users_80_20=(10,))
    monkeypatch.setitem(PROFILES, "quick", profile)
    return profile


def test_report_command(tmp_path, micro):
    """End-to-end report run against a micro profile."""
    out_path = tmp_path / "run.md"
    assert main(["report", "--output", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.startswith("# Reproduction run")
    assert "## fig2_same_zone" in text and "## fig3_same_zone" in text
    assert "## fig4_clock_sync" in text
    assert "## rtt_characterization" in text
    assert "## instance_variation" in text


def test_a_section_prints_the_registry_text(micro, capsys):
    from repro.experiments.report import render_sections
    name = "saturation_8020_different_region"
    assert main(["report", "--section", name]) == 0
    assert capsys.readouterr().out == \
        render_sections([name], micro, 0)[name] + "\n"


def test_report_refreshes_a_marked_file_in_place(tmp_path, capsys):
    path = tmp_path / "doc.md"
    path.write_text("prose\n<!-- section: instance_variation -->\n"
                    "<!-- /section -->\nmore prose\n")
    assert main(["report", "--output", str(path)]) == 0
    once = path.read_text()
    assert once.startswith("prose\n<!-- section: instance_variation -->\n"
                           "```\nsmall-instance CPU lottery over 4000")
    assert once.endswith("```\n<!-- /section -->\nmore prose\n")
    assert main(["report", "--output", str(path)]) == 0
    assert path.read_text() == once
    # The markers name the sections; --section cannot narrow them.
    assert main(["report", "--output", str(path),
                 "--section", "fig4_clock_sync"]) == 2
    path.write_text("<!-- section: instance_variation -->\n")
    assert main(["report", "--output", str(path)]) == 2
    assert "unterminated" in capsys.readouterr().out


def test_parser_defaults():
    args = build_parser().parse_args(["report"])
    assert args.section is None
    assert args.scale == "quick"
    assert args.output is None
    args = build_parser().parse_args(["cell"])
    assert args.slaves == 2 and args.users == 100

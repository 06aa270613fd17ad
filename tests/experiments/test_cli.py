"""CLI tests (fast subcommands run for real; grids use tiny cells)."""

import json

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
                                     "saturation", "bench", "trace",
                                     "chaos", "slo", "watch"])
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
    """`repro cell --out` runs a traced cell and writes the artifacts;
    `--watch` adds the live plane's two files."""
    out_dir = tmp_path / "traces"
    assert main(["cell", "--slaves", "1", "--users", "5",
                 "--out", str(out_dir), "--watch", "30"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cell: ") and "throughput:" in out
    assert "\n\nincident timeline — spec 'default'" in out
    watch = (out_dir / "watch.txt").read_text()
    assert watch.startswith("── watch t=") and f"\n\n{watch}\n" in out
    assert json.loads((out_dir / "incidents.json").read_text())["spec"]
    for name in ("incidents.json", "trace.json", "watch.txt"):
        assert f"wrote {out_dir / name}" in out
    doc = json.loads((out_dir / "trace.json").read_text())
    names = {event.get("name") for event in doc["traceEvents"]}
    assert {"driver.request", "repl.ship", "repl.apply"} <= names
    assert doc["kernelProfile"]["rows"]
    assert (out_dir / "spans.jsonl").exists()
    assert (out_dir / "metrics.jsonl").exists()
    assert "kernel profile" in (out_dir / "profile.txt").read_text()


def test_drill_output_rule(tmp_path, capsys):
    """Text stdout is the report, the incident timeline, the watch
    transcript and one ``wrote`` line per file; JSON stdout is the
    report alone, the same bytes as ``--out``'s recovery.json."""
    import os

    from repro.chaos import render_report_text
    from repro.obs.live import render_incidents_text
    out_dir = tmp_path / "drill"
    drill = ["drill", "--seed", "42", "--users", "4", "--slo",
             "--watch", "15", "--out", str(out_dir)]
    assert main(drill) == 0
    out = capsys.readouterr().out
    recovery = (out_dir / "recovery.json").read_text()
    incidents = json.loads((out_dir / "incidents.json").read_text())
    watch = (out_dir / "watch.txt").read_text()
    assert watch.startswith("── watch t=")
    assert out == "\n\n".join([
        render_report_text(json.loads(recovery)),
        render_incidents_text(incidents),
        watch[:-1],
        "\n".join(f"wrote {out_dir / name}"
                  for name in sorted(os.listdir(out_dir))),
    ]) + "\n"
    assert sorted(os.listdir(out_dir)) == [
        "incidents.json", "metrics.jsonl", "profile.txt",
        "recovery.json", "spans.jsonl", "trace.json", "watch.txt"]
    # This drill evicts a lagging slave and readmits it: both counters
    # pinned, which the crash drill (it evicts none) cannot do.
    assert json.loads(recovery)["routing"] == {
        "evictions": 1, "readmissions": 1, "reads_routed": 54,
        "writes_routed": 0}
    assert main(drill + ["--format", "json"]) == 0
    assert capsys.readouterr().out == recovery


@pytest.mark.parametrize("argv", [
    ["drill", "--spec", "x.json"], ["drill", "--interval", "15"],
    ["drill", "--cell"], ["cell", "--spec", "x.json"],
    ["cell", "--tolerance", "15"], ["drill", "--monitor-period", "5"]])
def test_retired_and_foreign_run_flags_no_longer_parse(argv):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2


@pytest.mark.parametrize("flag", ["--watch", "--monitor-period"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1",
                                   "soon"])
def test_a_period_must_be_finite_and_positive(flag, value, capsys):
    command = "cell" if flag == "--monitor-period" else "drill"
    with pytest.raises(SystemExit) as exit_info:
        main([command, flag, value])
    assert exit_info.value.code == 2
    assert f"error: argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "soon"])
def test_a_tolerance_must_be_finite_and_non_negative(value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["drill", "--tolerance", value])
    assert exit_info.value.code == 2
    assert "error: argument --tolerance" in capsys.readouterr().err


def test_the_drill_report_scores_at_the_given_tolerance(tmp_path, capsys):
    out_dir = tmp_path / "drill"
    assert main(["drill", "--seed", "42", "--users", "4", "--slo",
                 "--tolerance", "0.5", "--out", str(out_dir),
                 "--format", "json"]) == 0
    slo = json.loads(capsys.readouterr().out)["slo"]
    incidents = json.loads((out_dir / "incidents.json").read_text())
    assert slo["incidentsDigest"] == incidents["digest"]
    assert (slo["detected"], slo["scored"]) == (
        incidents["detection"]["detected"],
        incidents["detection"]["scored"])
    assert slo["detected"] < slo["scored"]  # 0.5 s misses some faults


def test_a_nan_period_in_an_slo_spec_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"name": "nan", "period_s": NaN, "rules": []}')
    assert main(["drill", "--slo", str(path)]) == 2
    assert f"repro drill: error: bad SLO spec {path}" in \
        capsys.readouterr().out


def test_the_default_plan_needs_two_slaves(capsys):
    assert main(["drill", "--slaves", "1"]) == 2
    assert "--slaves >= 2" in capsys.readouterr().out


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
    assert args.out is None and args.slo is None and args.watch is None
    # The verbs share their run flags but not their defaults.
    args = build_parser().parse_args(["drill", "--slo"])
    assert args.slaves == 2 and args.users == 20
    assert args.slo == "" and args.tolerance == 30.0

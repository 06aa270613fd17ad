"""`repro bench` end-to-end: list/run/out/compare flows and the
injected-regression exit code; `--wall-profile` on trace and chaos."""

import json

from repro.cli import main
from repro.perf import SCHEMA_VERSION, load_bench_file, stable_view

QUICK = ["bench", "--bench", "sql.parse_cold", "--repeats", "2",
         "--warmup", "0"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list_names_every_bench(capsys):
    code, out = run_cli(capsys, "bench", "--list")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] \
        == ["kernel.events", "obs.stream", "sql.parse_cold"]


def test_unknown_bench_exits_2(capsys):
    code, out = run_cli(capsys, "bench", "--bench", "bogus")
    assert code == 2
    assert "unknown benchmark 'bogus'" in out


def test_bad_repeats_exits_2(capsys):
    code, out = run_cli(capsys, *QUICK[:-4], "--repeats", "0")
    assert code == 2
    assert "--repeats must be >= 1" in out


def test_text_run_prints_table(capsys):
    code, out = run_cli(capsys, *QUICK)
    assert code == 0
    assert "repro bench — seed=0 scale=quick" in out
    assert "sql.parse_cold" in out and "statements/s" in out


def test_out_writes_canonical_document(tmp_path, capsys):
    path = tmp_path / "BENCH_x.json"
    code, out = run_cli(capsys, *QUICK, "--out", str(path))
    assert code == 0
    assert f"wrote {path}" in out
    document = load_bench_file(str(path))
    assert document["schemaVersion"] == SCHEMA_VERSION
    assert set(document["benchmarks"]) == {"sql.parse_cold"}
    assert document["run"] == {"seed": 0, "scale": "quick",
                               "repeats": 2, "warmup": 0}


def test_same_seed_documents_stable_outside_timing(tmp_path, capsys):
    """The ISSUE acceptance: two --out runs at one seed differ only
    in timing/host fields."""
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run_cli(capsys, *QUICK, "--out", str(path))[0] == 0
    views = [json.dumps(stable_view(load_bench_file(str(path))),
                        sort_keys=True) for path in paths]
    assert views[0] == views[1]


def test_compare_against_self_passes(tmp_path, capsys):
    path = tmp_path / "base.json"
    assert run_cli(capsys, *QUICK, "--out", str(path))[0] == 0
    code, out = run_cli(capsys, *QUICK, "--compare", str(path),
                        "--tolerance", "200")
    assert code == 0
    assert "bench compare: ok" in out


def test_compare_flags_injected_regression(tmp_path, capsys):
    """Shrink the baseline median 100x: the fresh run must exit 1."""
    path = tmp_path / "base.json"
    assert run_cli(capsys, *QUICK, "--out", str(path))[0] == 0
    baseline = json.loads(path.read_text())
    for bench in baseline["benchmarks"].values():
        bench["stats"]["median_s"] /= 100.0
    path.write_text(json.dumps(baseline))
    code, out = run_cli(capsys, *QUICK, "--compare", str(path),
                        "--tolerance", "10")
    assert code == 1
    assert "REGRESSION" in out
    assert "bench compare: FAIL" in out


def test_partial_run_does_not_flag_unselected_as_missing(tmp_path,
                                                         capsys):
    """--bench sql.parse_cold vs a full-suite baseline: only
    sql.parse_cold is compared."""
    path = tmp_path / "full.json"
    full = {"schema": "repro-bench", "schemaVersion": SCHEMA_VERSION,
            "host": {}, "run": {"seed": 0, "scale": "quick",
                                "repeats": 2, "warmup": 0},
            "benchmarks": {
                name: {"subsystem": "x", "unit": "events",
                       "counters": {"events": 1},
                       "stats": {"min_s": 100.0, "median_s": 100.0,
                                 "mean_s": 100.0, "cov": 0.0,
                                 "repeats": 2},
                       "rate_per_s": 0.01}
                for name in ("sql.parse_cold", "kernel.events")}}
    path.write_text(json.dumps(full))
    code, out = run_cli(capsys, *QUICK, "--compare", str(path))
    assert code == 0
    assert "kernel.events" not in out.split("bench compare")[1]


def test_schema_mismatch_fails_via_cli(tmp_path, capsys):
    path = tmp_path / "old.json"
    assert run_cli(capsys, *QUICK, "--out", str(path))[0] == 0
    stale = json.loads(path.read_text())
    stale["schemaVersion"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(stale))
    code, out = run_cli(capsys, *QUICK, "--compare", str(path))
    assert code == 1
    assert "schema version mismatch" in out


def test_compare_missing_file_exits_2(tmp_path, capsys):
    code, out = run_cli(capsys, *QUICK, "--compare",
                        str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in out


def test_json_format_embeds_document_compare_and_profile(tmp_path,
                                                         capsys):
    path = tmp_path / "base.json"
    assert run_cli(capsys, *QUICK, "--out", str(path))[0] == 0
    code, out = run_cli(capsys, *QUICK, "--compare", str(path),
                        "--tolerance", "200", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "repro-bench"
    assert payload["compare"]["exit_code"] == 0


def test_trace_wall_profile_writes_sidecars(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    code = main(["trace", "--users", "5", "--slaves", "1", "--seed",
                 "7", "--out", str(out_dir), "--wall-profile"])
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "wallprof.txt").is_file()
    assert (out_dir / "wallprof.collapsed").is_file()
    assert "wall-clock profile" in (out_dir / "wallprof.txt") \
        .read_text()


def test_chaos_wall_profile_keeps_stdout_byte_identical(tmp_path,
                                                        capsys):
    # The property is size-independent: a 4-user drill shows it.
    drill = ["chaos", "--seed", "42", "--users", "4", "--format",
             "json"]
    plain = main(drill)
    plain_out = capsys.readouterr().out
    profiled = main(drill + ["--out", str(tmp_path / "chaos"),
                             "--wall-profile"])
    profiled_out = capsys.readouterr().out
    assert plain == profiled == 0
    assert plain_out == profiled_out
    assert (tmp_path / "chaos" / "wallprof.collapsed").is_file()

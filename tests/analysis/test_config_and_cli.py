"""Config loading (pyproject + fallback parser), rule selection, and
the ``python -m repro check`` command."""

import json
import os

import pytest

from repro.analysis import (DEFAULT_CONFIG, LintConfig, all_rules,
                            check_paths, load_config)
from repro.analysis.config import config_from_table, parse_simlint_table
from repro.analysis.race import RACE_RULES
from repro.analysis.taint import TAINT_RULES
from repro.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# ----------------------------------------------------------- selection
def test_select_restricts_to_family():
    config = LintConfig(select=("DET",))
    assert config.rule_enabled("DET001")
    assert not config.rule_enabled("SQL001")


def test_ignore_drops_specific_rule():
    config = LintConfig(ignore=("TNT003",))
    assert config.rule_enabled("TNT001")
    assert not config.rule_enabled("TNT003")


def test_narrowed_applies_cli_overrides():
    config = DEFAULT_CONFIG.narrowed(select=["SQL"], ignore=["SQL003"])
    assert config.rule_enabled("SQL001")
    assert not config.rule_enabled("SQL003")
    assert not config.rule_enabled("DET001")


# ------------------------------------------------------------- loading
def test_load_config_reads_repo_pyproject():
    config = load_config(REPO_ROOT)
    assert config.paths == ("src/repro", "tests", "benchmarks")
    assert "src/repro/sql" in config.sql_exclude
    assert ("tests/sim", "FLW002") in config.per_path_ignore


def test_load_config_defaults_without_pyproject(tmp_path):
    assert load_config(str(tmp_path)) == DEFAULT_CONFIG


def test_load_config_from_custom_pyproject(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.simlint]\n"
        'paths = ["lib"]\n'
        'select = ["DET", "FLW"]\n'
        'ignore = ["DET005"]\n')
    config = load_config(str(tmp_path))
    assert config.paths == ("lib",)
    assert config.rule_enabled("FLW001")
    assert not config.rule_enabled("DET005")
    assert not config.rule_enabled("SQL001")


def test_fallback_parser_matches_tomllib_for_our_table():
    text = (
        "[tool.other]\n"
        'noise = "yes"\n'
        "[tool.simlint]\n"
        'paths = ["src/repro", "tools"]\n'
        "select = []\n"
        'ignore = ["SQL003"]\n'
        "[tool.after]\n"
        'more = "noise"\n')
    table = parse_simlint_table(text)
    assert table == {"paths": ["src/repro", "tools"], "select": [],
                     "ignore": ["SQL003"]}
    config = config_from_table(table)
    assert config.paths == ("src/repro", "tools")
    assert config.ignore == ("SQL003",)


def test_config_rejects_non_string_lists():
    with pytest.raises(ValueError):
        config_from_table({"paths": [1, 2]})


# ----------------------------------------------------- per-path ignore
def test_per_path_ignore_drops_rule_under_prefix():
    config = LintConfig(per_path_ignore=(("tests/sim", "FLW002"),))
    assert not config.rule_enabled_at("FLW002", "tests/sim/test_x.py")
    assert not config.rule_enabled_at("FLW002", "./tests/sim/deep/y.py")
    # Other rules and other paths are unaffected.
    assert config.rule_enabled_at("FLW001", "tests/sim/test_x.py")
    assert config.rule_enabled_at("FLW002", "tests/simx/test_x.py")
    assert config.rule_enabled_at("FLW002", "src/repro/pool.py")


def test_per_path_ignore_accepts_family_prefix():
    config = LintConfig(per_path_ignore=(("tests/sql", "SQL"),))
    assert not config.rule_enabled_at("SQL001", "tests/sql/t.py")
    assert not config.rule_enabled_at("SQL003", "tests/sql/t.py")
    assert config.rule_enabled_at("DET001", "tests/sql/t.py")


def test_per_path_ignore_parses_from_table():
    config = config_from_table(
        {"per-path-ignore": ["tests/sim:FLW002,FLW001",
                             "benchmarks:DET"]})
    assert ("tests/sim", "FLW002") in config.per_path_ignore
    assert ("tests/sim", "FLW001") in config.per_path_ignore
    assert ("benchmarks", "DET") in config.per_path_ignore


def test_per_path_ignore_rejects_malformed_entry():
    with pytest.raises(ValueError):
        config_from_table({"per-path-ignore": ["no-colon-here"]})


def test_per_path_ignore_survives_narrowed():
    config = LintConfig(per_path_ignore=(("tests", "SQL"),))
    narrowed = config.narrowed(ignore=["DET005"])
    assert not narrowed.rule_enabled_at("SQL001", "tests/t.py")


def test_per_path_ignore_applies_through_lint_paths(tmp_path):
    leaky = ("def worker(sim, res):\n"
             "    req = res.request()\n"
             "    yield req\n")
    exempt = tmp_path / "exempt"
    exempt.mkdir()
    (exempt / "t.py").write_text(leaky)
    checked = tmp_path / "checked"
    checked.mkdir()
    (checked / "t.py").write_text(leaky)
    prefix = str(exempt).replace(os.sep, "/")
    config = LintConfig(sql_exclude=(),
                        per_path_ignore=((prefix, "FLW002"),))
    findings = check_paths([str(tmp_path)], config=config)["simlint"]
    assert [finding.rule_id for finding in findings] == ["FLW002"]
    assert findings[0].path.startswith(str(checked))


# ----------------------------------------------------------------- CLI
def bad_module(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(
        "import time\n"
        "def probe(sim):\n"
        "    yield sim.timeout(1.0)\n"
        "    time.time()\n")
    return str(path)


def test_cli_lint_clean_path_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert main(["check", str(clean)]) == 0
    assert "simlint: no findings" in capsys.readouterr().out


def test_cli_lint_violation_exits_nonzero(tmp_path, capsys):
    assert main(["check", bad_module(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "bad.py:4:" in out


def test_cli_lint_json_format(tmp_path, capsys):
    assert main(["check", "--format", "json",
                 bad_module(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    (finding,) = payload["tools"]["simlint"]["findings"]
    assert finding["rule_id"] == "DET001"
    assert finding["line"] == 4


def test_cli_lint_select_and_ignore(tmp_path, capsys):
    path = bad_module(tmp_path)
    assert main(["check", "--select", "SQL", path]) == 0
    capsys.readouterr()
    assert main(["check", "--ignore", "DET001", path]) == 0


def test_lint_paths_accepts_single_file(tmp_path):
    results = check_paths([bad_module(tmp_path)],
                          config=LintConfig(sql_exclude=()))
    assert [finding.rule_id
            for finding in results["simlint"]] == ["DET001"]


def test_cli_lint_unknown_rule_is_a_usage_error(tmp_path, capsys):
    # A typo'd --select must not silently disable every rule.
    assert main(["check", "--select", "BOGUS",
                 bad_module(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "unknown rule or family: BOGUS" in out
    # Every analyzer's ids are selectable, so all are listed as known.
    for rule_id in ("DET001", "FLW001", "RACE001", "TNT005", "PARSE"):
        assert rule_id in out
    assert main(["check", "--ignore", "DET01",
                 bad_module(tmp_path)]) == 2


REGISTRY = ["DET001", "DET002", "DET005", "FLW001", "FLW002",
            "RACE001", "SQL001", "SQL002", "SQL003", "TNT001",
            "TNT002", "TNT003", "TNT004", "TNT005"]


def test_registry_is_exactly_the_rules_that_have_fired():
    rules = all_rules() + [cls() for cls in RACE_RULES + TAINT_RULES]
    assert sorted(rule.rule_id for rule in rules) == REGISTRY


def test_cli_check_retired_rule_id_is_unknown(tmp_path, capsys):
    # Retired ids are never reused and not silently accepted: SIM003
    # is as unknown as a typo, and the message lists what is left.
    assert main(["check", "--select", "SIM003",
                 bad_module(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "unknown rule or family: SIM003" in out
    listed = out[out.index("(known: ") + 8:out.rindex(")")].split(", ")
    assert listed == sorted(REGISTRY + ["PARSE"])


def unparsable_dir(tmp_path):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    return str(tmp_path)


def test_cli_check_ignoring_parse_is_a_usage_error(tmp_path, capsys):
    # An unparsable file is never analysed, so it keeps failing the
    # gate: ignoring PARSE is refused, not silently accepted.
    path = unparsable_dir(tmp_path)
    assert main(["check", path, "--ignore", "PARSE"]) == 2
    out = capsys.readouterr().out
    assert "PARSE cannot be ignored" in out
    assert "broken.py" not in out
    # ...and no --select drops it.
    assert main(["check", path, "--select", "TNT"]) == 1
    assert "PARSE file does not parse" in capsys.readouterr().out


def test_config_rejects_ignoring_parse():
    with pytest.raises(ValueError, match="PARSE cannot be ignored"):
        config_from_table({"per-path-ignore": ["x:PARSE"]})
    with pytest.raises(ValueError, match="PARSE cannot be ignored"):
        config_from_table({"ignore": ["PARSE"]})


def test_cli_lint_missing_path_is_an_error(tmp_path, capsys):
    missing = str(tmp_path / "no_such_dir")
    assert main(["check", missing]) == 2
    assert "does not exist" in capsys.readouterr().out


def test_cli_lint_sarif_format(tmp_path, capsys):
    assert main(["check", "--format", "sarif",
                 bad_module(tmp_path)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    results = document["runs"][0]["results"]
    assert [result["ruleId"] for result in results] == ["DET001"]


def test_cli_lint_stats_appends_to_text(tmp_path, capsys):
    assert main(["check", "--stats", bad_module(tmp_path)]) == 1
    out = capsys.readouterr().out
    # One pass: the file is counted once, not once per analyzer.
    assert "simlint stats: 1 file," in out
    assert "DET001: 1 finding" in out


def test_cli_lint_stats_goes_to_stderr_for_machine_formats(tmp_path,
                                                           capsys):
    assert main(["check", "--format", "json", "--stats",
                 bad_module(tmp_path)]) == 1
    captured = capsys.readouterr()
    json.loads(captured.out)  # stdout stays a valid document
    assert "simlint stats" in captured.err


# ------------------------------------- check --select RACE (racecheck)
RACED = """\
class Pool:
    def __init__(self, sim):
        self.sim = sim
        self.free = 5

    def worker(self):
        count = self.free
        yield self.sim.timeout(1)
        self.free = count - 1


def main(sim, pool):
    for _ in range(2):
        sim.process(pool.worker())
"""

RACE_GATE = ["check", "--select", "RACE"]


def raced_module(tmp_path):
    path = tmp_path / "raced.py"
    path.write_text(RACED)
    return str(path)


def test_cli_racecheck_clean_path_exits_zero(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    assert main(RACE_GATE + [str(clean)]) == 0
    assert "simrace: no findings" in capsys.readouterr().out


def test_cli_racecheck_finding_exits_one(tmp_path, capsys):
    assert main(RACE_GATE + [raced_module(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RACE001" in out
    assert "read here" in out          # related location rendered
    assert "yield point crossed" in out


def test_cli_racecheck_json_format(tmp_path, capsys):
    assert main(RACE_GATE + ["--format", "json",
                             raced_module(tmp_path)]) == 1
    document = json.loads(capsys.readouterr().out)
    (finding,) = document["tools"]["simrace"]["findings"]
    assert finding["rule_id"] == "RACE001"
    assert len(finding["related"]) == 2
    assert document["count"] == 1


def test_cli_racecheck_sarif_format(tmp_path, capsys):
    assert main(RACE_GATE + ["--format", "sarif",
                             raced_module(tmp_path)]) == 1
    document = json.loads(capsys.readouterr().out)
    run = document["runs"][1]
    assert run["tool"]["driver"]["name"] == "simrace"
    listed = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert listed == {"RACE001"}
    (result,) = run["results"]
    assert result["ruleId"] == "RACE001"
    assert len(result["relatedLocations"]) == 2


def test_cli_racecheck_stats_line(tmp_path, capsys):
    assert main(RACE_GATE + ["--stats", raced_module(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RACE001: 1 finding" in out
    # --select narrows the rules that run, nothing else.
    assert "DET001" not in out and "TNT001" not in out


def test_cli_racecheck_missing_path_is_an_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.py")
    assert main(RACE_GATE + [missing]) == 2


# --------------------------------- one gate: --select / --ignore narrow
EVERY_FAMILY = RACED + """\


def stamp(server):
    import time
    server.started_at = time.time()


def run(pool):
    conn = pool.acquire()
    conn.query()
"""


def _rule_ids(capsys):
    document = json.loads(capsys.readouterr().out)
    return {tool: sorted(finding["rule_id"]
                         for finding in section["findings"])
            for tool, section in document["tools"].items()}


def test_cli_check_select_and_ignore_narrow_across_analyzers(tmp_path,
                                                             capsys):
    path = tmp_path / "everything.py"
    path.write_text(EVERY_FAMILY)
    command = ["check", "--format", "json", str(path)]
    assert main(command) == 1
    assert _rule_ids(capsys) == {"simlint": ["DET001", "FLW001"],
                                 "simrace": ["RACE001"],
                                 "simtaint": ["TNT005"]}
    assert main(command + ["--select", "TNT"]) == 1
    assert _rule_ids(capsys) == {"simlint": [], "simrace": [],
                                 "simtaint": ["TNT005"]}
    assert main(command + ["--select", "RACE,FLW"]) == 1
    assert _rule_ids(capsys) == {"simlint": ["FLW001"],
                                 "simrace": ["RACE001"],
                                 "simtaint": []}
    assert main(command + ["--ignore", "FLW001",
                           "--ignore", "RACE"]) == 1
    assert _rule_ids(capsys) == {"simlint": ["DET001"], "simrace": [],
                                 "simtaint": ["TNT005"]}

"""``repro check``, the one gate: one parse and one rule pass per file
over one shared model, three report sections, one merged SARIF
document."""

import ast
import json
import textwrap

import pytest

from repro.analysis import LintStats, check_paths, load_config
from repro.cli import main


@pytest.fixture
def project(tmp_path):
    def build(sources):
        paths = []
        for name, source in sorted(sources.items()):
            target = tmp_path / name
            target.write_text(textwrap.dedent(source),
                              encoding="utf-8")
            paths.append(str(target))
        return paths

    return build


TAINTED = """\
import time


def stamp(server):
    server.started_at = time.time()
"""


def test_check_paths_returns_per_tool_findings(project):
    paths = project({"mod.py": TAINTED})
    results = check_paths(paths, config=load_config("."))
    assert sorted(results) == ["simlint", "simrace", "simtaint"]
    assert [f.rule_id for f in results["simtaint"]] == ["TNT005"]
    assert results["simrace"] == []


def test_check_impure_call_still_settles_claims(project):
    # Handing the connection to a callee that keeps it is an escape:
    # the claim stops being this function's to prove, no FLW001.
    paths = project({"handoff.py": """\
        REGISTRY = []


        def adopt(conn):
            REGISTRY.append(conn)


        def run(pool):
            conn = pool.acquire()
            adopt(conn)
    """})
    results = check_paths(paths, config=load_config("."))
    assert not any(f.rule_id == "FLW001"
                   for f in results["simlint"])


def test_check_reports_unparsable_file_once(project):
    # A file that does not parse is one PARSE finding (simlint's
    # section, whatever is selected — it must not pass silently), and
    # the rest of the project is still analysed around it.
    paths = project({"broken.py": "def broken(:\n", "mod.py": TAINTED})
    config = load_config(".").narrowed(select=["TNT"])
    results = check_paths(paths, config=config)
    (finding,) = results["simlint"]
    assert finding.rule_id == "PARSE"
    assert finding.path.endswith("broken.py") and finding.line == 1
    assert results["simrace"] == []
    assert [f.rule_id for f in results["simtaint"]] == ["TNT005"]


def test_check_stats_count_each_file_once(project, monkeypatch):
    # One pass: each file is parsed once, gets one rule pass over the
    # model's own tree, and is counted once (the parent's three passes
    # reported 3x the files).
    paths = project({f"m{index}.py": TAINTED for index in range(3)})
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        if "filename" in kwargs:  # a source file, not a fragment
            parsed.append(kwargs["filename"])
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    stats = LintStats()
    results = check_paths(paths, config=load_config("."), stats=stats)
    assert sorted(parsed) == sorted(paths)
    assert stats.files == 3
    assert stats.findings_per_rule["TNT005"] == 3
    assert len(results["simtaint"]) == 3
    assert "simlint stats: 3 files," in stats.render()
    assert "parse cache" not in stats.render()


# ---------------------------------------------------------------------------
# CLI: text / json / merged sarif.
# ---------------------------------------------------------------------------

def test_cli_check_text_sections(project, capsys):
    (path,) = project({"mod.py": TAINTED})
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 1
    for section in ("simlint", "simrace", "simtaint", "simcheck"):
        assert section in out


def test_cli_check_merged_sarif(project, capsys):
    (path,) = project({"mod.py": TAINTED})
    code = main(["check", path, "--format", "sarif"])
    out = capsys.readouterr().out
    assert code == 1
    document = json.loads(out)
    names = [run["tool"]["driver"]["name"]
             for run in document["runs"]]
    assert names == ["simlint", "simrace", "simtaint"]
    taint_run = document["runs"][2]
    assert [r["ruleId"] for r in taint_run["results"]] == ["TNT005"]
    # Rule metadata is present for every TNT rule, findings or not.
    assert len(taint_run["tool"]["driver"]["rules"]) == 5


def test_cli_check_json_per_tool(project, capsys):
    (path,) = project({"mod.py": TAINTED})
    code = main(["check", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    document = json.loads(out)
    # simlint's DET001 flags the same wall-clock read the taint pass
    # traces to its sink — both surface in one document.
    assert document["tools"]["simtaint"]["count"] == 1
    assert document["tools"]["simlint"]["count"] == 1
    assert document["count"] == sum(
        tool["count"] for tool in document["tools"].values())


def test_cli_check_clean_exit_zero(project, capsys):
    (path,) = project({"mod.py": "def f(x):\n    return x + 1\n"})
    assert main(["check", path]) == 0
    assert "0 findings" in capsys.readouterr().out

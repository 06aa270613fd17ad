"""SARIF 2.1.0 output: spot-checks of the schema shape GitHub reads."""

import json

from repro.analysis import all_rules, format_merged_sarif, lint_source
from repro.analysis.findings import Finding
from repro.analysis.sarif import SARIF_SCHEMA_URI, SARIF_VERSION


def document_for(findings):
    return json.loads(format_merged_sarif(
        [("simlint", findings, all_rules())]))


def test_top_level_shape():
    document = document_for([])
    assert document["$schema"] == SARIF_SCHEMA_URI
    assert document["version"] == SARIF_VERSION == "2.1.0"
    assert len(document["runs"]) == 1
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    assert run["columnKind"] == "utf16CodeUnits"
    assert run["results"] == []


def test_driver_lists_every_rule_even_with_no_findings():
    driver = document_for([])["runs"][0]["tool"]["driver"]
    listed = {rule["id"] for rule in driver["rules"]}
    assert listed == {rule.rule_id for rule in all_rules()}
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]


def test_result_shape_and_one_based_columns():
    finding = Finding(path="./src/repro/x.py", line=7, column=4,
                      rule_id="FLW001", message="leaky",
                      hint="use finally")
    result = document_for([finding])["runs"][0]["results"][0]
    assert result["ruleId"] == "FLW001"
    assert result["level"] == "error"
    assert "leaky" in result["message"]["text"]
    assert "use finally" in result["message"]["text"]
    location = result["locations"][0]["physicalLocation"]
    # "./" is stripped so code scanning resolves the artifact.
    assert location["artifactLocation"]["uri"] == "src/repro/x.py"
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    # simlint columns are 0-based (ast), SARIF regions 1-based.
    assert location["region"]["startLine"] == 7
    assert location["region"]["startColumn"] == 5


def test_rule_index_points_into_driver_rules():
    finding = Finding(path="a.py", line=1, column=0,
                      rule_id="DET001", message="clock read")
    document = document_for([finding])
    run = document["runs"][0]
    result = run["results"][0]
    index = result["ruleIndex"]
    assert run["tool"]["driver"]["rules"][index]["id"] == "DET001"


def test_round_trip_from_lint_source():
    findings = lint_source(
        "def user(sim, pool):\n"
        "    conn = yield from pool.acquire()\n"
        "    yield sim.timeout(1.0)\n"
        "    pool.release(conn)\n",
        path="src/repro/fake.py")
    document = document_for(findings)
    results = document["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["FLW001"]
    assert results[0]["locations"][0]["physicalLocation"][
        "region"]["startLine"] == 2


def test_related_locations_carried_into_sarif():
    finding = Finding(
        path="./src/repro/x.py", line=12, column=8,
        rule_id="RACE001", message="stale write-back of 'pool.free'",
        hint="re-read after the yield",
        related=(("./src/repro/x.py", 9, 4, "'pool.free' read here"),
                 ("./src/repro/x.py", 10, 0,
                  "yield point crossed here")))
    result = document_for([finding])["runs"][0]["results"][0]
    related = result["relatedLocations"]
    assert len(related) == 2
    read, crossing = related
    location = read["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/x.py"
    assert location["region"]["startLine"] == 9
    assert location["region"]["startColumn"] == 5  # 1-based
    assert read["message"]["text"] == "'pool.free' read here"
    assert crossing["message"]["text"] == "yield point crossed here"


def test_related_locations_absent_when_finding_has_none():
    finding = Finding(path="./x.py", line=1, column=0,
                      rule_id="FLW001", message="m", hint="")
    result = document_for([finding])["runs"][0]["results"][0]
    assert "relatedLocations" not in result


def test_related_locations_in_render_and_dict():
    finding = Finding(
        path="x.py", line=12, column=8, rule_id="RACE001",
        message="stale write-back", hint="",
        related=(("x.py", 9, 4, "read here"),))
    assert "x.py:9:4: read here" in finding.render()
    payload = finding.as_dict()
    assert payload["related"] == [
        {"path": "x.py", "line": 9, "column": 4,
         "message": "read here"}]

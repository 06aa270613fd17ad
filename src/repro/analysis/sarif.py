"""SARIF 2.1.0 output for ``repro check`` findings.

The Static Analysis Results Interchange Format is what GitHub code
scanning consumes (``github/codeql-action/upload-sarif``): uploading a
run makes every finding annotate the PR diff at its file/line.  Only
the schema subset GitHub reads is emitted — one ``run`` per analyzer
with a tool descriptor (every known rule, so rule metadata renders
even for rules with zero findings this run) and one ``result`` per
finding.

Columns: simlint stores 0-based columns (as ``ast`` reports them);
SARIF regions are 1-based, so ``startColumn = column + 1``.
"""

from __future__ import annotations

import json
from typing import Sequence

from .findings import Finding
from .visitor import Rule

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "format_merged_sarif",
           "sarif_run"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

_TOOL_URI = ("https://github.com/paper-repro/icde2012-replication"
             "#static-analysis--determinism-guarantees")


def _artifact_uri(path: str) -> str:
    uri = path.replace("\\", "/")
    while uri.startswith("./"):
        uri = uri[2:]
    return uri


def _rule_descriptor(rule: Rule) -> dict:
    descriptor = {
        "id": rule.rule_id,
        "shortDescription": {"text": rule.description},
    }
    if rule.hint:
        descriptor["help"] = {"text": rule.hint}
    return descriptor


def _physical_location(path: str, line: int, column: int) -> dict:
    return {
        "artifactLocation": {
            "uri": _artifact_uri(path),
            "uriBaseId": "%SRCROOT%",
        },
        "region": {
            "startLine": max(line, 1),
            "startColumn": column + 1,
        },
    }


def _result(finding: Finding, rule_index: dict[str, int]) -> dict:
    message = finding.message
    if finding.hint:
        message += f" (hint: {finding.hint})"
    result = {
        "ruleId": finding.rule_id,
        "level": "error",
        "message": {"text": message},
        "locations": [{
            "physicalLocation": _physical_location(
                finding.path, finding.line, finding.column),
        }],
    }
    if finding.related:
        # RACE001 carries both halves of a race (the stale read and
        # the yield it crossed), the TNT rules the taint path; code
        # scanning renders these as secondary annotations on the same
        # alert.
        result["relatedLocations"] = [{
            "physicalLocation": _physical_location(rpath, rline, rcol),
            "message": {"text": rmessage},
        } for rpath, rline, rcol, rmessage in finding.related]
    if finding.rule_id in rule_index:
        result["ruleIndex"] = rule_index[finding.rule_id]
    return result


def sarif_run(tool_name: str, findings: Sequence[Finding],
              rules: Sequence[Rule],
              tool_version: str = "1.0.0") -> dict:
    """One SARIF ``run`` object for one tool's findings."""
    descriptors = [_rule_descriptor(rule) for rule in rules]
    rule_index = {descriptor["id"]: position
                  for position, descriptor in enumerate(descriptors)}
    return {
        "tool": {
            "driver": {
                "name": tool_name,
                "informationUri": _TOOL_URI,
                "version": tool_version,
                "rules": descriptors,
            },
        },
        "columnKind": "utf16CodeUnits",
        "results": [_result(finding, rule_index)
                    for finding in findings],
    }


def format_merged_sarif(runs: Sequence[tuple],
                        tool_version: str = "1.0.0") -> str:
    """One SARIF 2.1.0 document (a JSON string) with one ``run`` per
    tool — what ``repro check`` emits so a single code-scanning upload
    carries every analyzer.

    ``runs`` is ``[(tool_name, findings, rules), ...]``; run order is
    preserved (lint, race, taint).
    """
    return json.dumps({
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [sarif_run(name, findings, rules, tool_version)
                 for name, findings, rules in runs],
    }, indent=2)

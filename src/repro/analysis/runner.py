"""Run the rules over files and format the findings."""

from __future__ import annotations

import ast
import time
from collections import Counter
from dataclasses import dataclass, field
import os
from typing import Iterable, Optional, Sequence

from .config import DEFAULT_CONFIG, LintConfig
from .findings import Finding
from .visitor import LintContext, Rule, all_rules

__all__ = ["LintStats", "lint_source", "check_paths",
           "format_findings_text"]


@dataclass
class LintStats:
    """Per-run accounting: what each rule found and what it cost.

    ``python -m repro check --stats`` prints this so analysis cost
    stays visible in CI logs — a rule whose wall-time balloons gets
    caught in review, not six months later.
    """

    files: int = 0
    findings_per_rule: Counter = field(default_factory=Counter)
    seconds_per_rule: dict = field(default_factory=dict)
    total_seconds: float = 0.0

    def observe(self, rule_id: str, findings: int,
                seconds: float) -> None:
        self.findings_per_rule[rule_id] += findings
        self.seconds_per_rule[rule_id] = \
            self.seconds_per_rule.get(rule_id, 0.0) + seconds

    def render(self) -> str:
        lines = [f"simlint stats: {self.files} file"
                 f"{'s' if self.files != 1 else ''}, "
                 f"{self.total_seconds * 1000:.0f} ms total"]
        for rule_id in sorted(self.seconds_per_rule):
            lines.append(
                f"  {rule_id}: {self.findings_per_rule[rule_id]} "
                f"finding{'s' if self.findings_per_rule[rule_id] != 1 else ''}"
                f", {self.seconds_per_rule[rule_id] * 1000:.1f} ms")
        return "\n".join(lines)


def _parse(source: str, path: str):
    """``(tree, None)``, or ``(None, finding)`` with a ready-to-emit
    PARSE :class:`Finding` when ``source`` is not valid Python."""
    try:
        return ast.parse(source, filename=path), None
    except SyntaxError as error:
        return None, Finding(path, error.lineno or 1, error.offset or 0,
                             "PARSE",
                             f"file does not parse: {error.msg}")


def lint_source(source: str, path: str = "<string>",
                config: LintConfig = DEFAULT_CONFIG,
                rules: Optional[Sequence[Rule]] = None,
                stats: Optional[LintStats] = None,
                tree: Optional[ast.Module] = None) -> list[Finding]:
    """Run ``rules`` (default: :func:`all_rules`, the project-free
    ones) over one file's text; ``path`` is used in findings, for the
    per-path ignores and for the SQL-exclusion patterns.
    :func:`check_paths` passes the project model's ``tree`` so node
    identities line up."""
    if tree is None:
        tree, error = _parse(source, path)
        if error is not None:
            return [error]
    if rules is None:
        rules = all_rules()
    context = LintContext(path, source, tree, config)
    if stats is not None:
        stats.files += 1
    for rule in rules:
        if not config.rule_enabled_at(rule.rule_id, path):
            continue
        before = len(context.findings)
        # Wall-clock here measures the linter itself, not simulation
        # behaviour; the determinism rule does not apply to it.
        started = time.perf_counter()  # simlint: disable=DET001  # simtaint: blessed=analyzer-wall-time
        rule.check(context)
        if stats is not None:
            stats.observe(rule.rule_id, len(context.findings) - before,
                          time.perf_counter() - started)  # simlint: disable=DET001  # simtaint: blessed=analyzer-wall-time
    return sorted(context.findings)


def _python_files(path: str) -> Iterable[str]:
    if os.path.isfile(path):
        yield path
        return
    if not os.path.isdir(path):
        # A missing path must not pass silently: in CI a renamed
        # directory would otherwise turn the gate into a no-op.
        raise FileNotFoundError(f"lint path does not exist: {path}")
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _section(rule_id: str) -> str:
    """The ``repro check`` section a finding is reported under
    (everything that is not RACE/TNT, PARSE included, is simlint's)."""
    if rule_id.startswith("RACE"):
        return "simrace"
    if rule_id.startswith("TNT"):
        return "simtaint"
    return "simlint"


def check_paths(paths: Optional[Iterable[str]] = None,
                config: LintConfig = DEFAULT_CONFIG,
                stats: Optional[LintStats] = None) -> dict:
    """The one way to analyse paths: every rule in one pass.

    Parses each ``*.py`` file under ``paths`` (default: the config's
    paths) once, builds one project model and the taint summaries
    over those trees, then runs every enabled rule — DET/SQL/FLW,
    RACE, TNT — over one :class:`LintContext` per file, so whatever
    one rule memoizes on ``context.cache`` the next one finds.
    ``config.select`` / ``ignore`` narrow the rules, never the model.

    Returns ``{"simlint": [...], "simrace": [...], "simtaint": [...]}``
    (each sorted), split by rule-id family.
    """
    from .race import build_project_model, race_rules
    from .taint import taint_rules

    started = time.perf_counter()  # simlint: disable=DET001  # simtaint: blessed=analyzer-wall-time
    filenames = [filename
                 for path in (paths if paths is not None
                              else config.paths)
                 for filename in _python_files(path)]
    parsed: dict = {}
    for filename in filenames:
        if filename not in parsed:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
            parsed[filename] = (source, *_parse(source, filename))
    model = build_project_model(
        filenames, loader=lambda path: parsed[path][:2])
    rules = all_rules() + race_rules(model) + taint_rules(model)
    findings: list[Finding] = []
    for filename in filenames:
        source, tree, error = parsed[filename]
        if error is not None:
            findings.append(error)
        else:
            findings.extend(lint_source(source, path=filename,
                                        config=config, rules=rules,
                                        stats=stats, tree=tree))
    results: dict = {"simlint": [], "simrace": [], "simtaint": []}
    for finding in sorted(findings):
        results[_section(finding.rule_id)].append(finding)
    if stats is not None:
        stats.total_seconds = \
            time.perf_counter() - started  # simlint: disable=DET001  # simtaint: blessed=analyzer-wall-time
    return results


def format_findings_text(findings: Sequence[Finding],
                         tool: str = "simlint") -> str:
    if not findings:
        return f"{tool}: no findings"
    lines = [finding.render() for finding in findings]
    lines.append(f"{tool}: {len(findings)} finding"
                 f"{'s' if len(findings) != 1 else ''}")
    return "\n".join(lines)

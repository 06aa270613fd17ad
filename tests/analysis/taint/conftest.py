"""Shared plumbing for the taint-analysis tests: write fixture
sources to a temp directory, build the project model, and run the TNT
rules the way ``check_paths`` does."""

import textwrap

import pytest

from repro.analysis.config import LintConfig
from repro.analysis.race import build_project_model
from repro.analysis.taint import taint_rules
from repro.analysis.visitor import LintContext


def _write(tmp_path, sources):
    paths = []
    for name, source in sorted(sources.items()):
        target = tmp_path / name
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(str(target))
    return paths


@pytest.fixture
def taint_project(tmp_path):
    def run(sources, config=None):
        """``sources``: {filename: source}.  Returns (model, findings)."""
        paths = _write(tmp_path, sources)
        model = build_project_model(paths)
        rules = taint_rules(model)
        findings = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            module = model.module_for(path)
            assert module is not None, f"{path} did not parse"
            context = LintContext(path, source, module.tree,
                                  config or LintConfig())
            for rule in rules:
                rule.check(context)
            findings.extend(context.findings)
        return model, sorted(findings)

    return run

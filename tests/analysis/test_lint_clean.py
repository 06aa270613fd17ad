"""The gate: ``src/repro`` must be simlint-clean.

This is the enforcement point for the reproduction's determinism,
sim-safety, SQL and flow-pairing invariants — a refactor that
introduces a wall-clock read, a blocking call in a sim process, a
typo'd table/column or a connection leaked on an exception edge fails
CI here (and via ``python -m repro check``).
"""

from repro.analysis import format_findings_text


def test_src_repro_is_lint_clean(repo_check):
    findings = repo_check["simlint"]
    assert not findings, "\n" + format_findings_text(findings)

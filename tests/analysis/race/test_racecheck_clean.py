"""The race gate: the repo must be simrace-clean.

The static prong's enforcement point — a change that reintroduces a
read→yield→write-back, an unguarded check-then-act, or a live shared
iteration across a preemption fails CI here (and via
``python -m repro check``).  The deliberately raced specimens
under ``tests/analysis/race/fixtures`` are excused by the
``per-path-ignore`` entry in ``pyproject.toml``.
"""

from repro.analysis import format_findings_text


def test_repo_is_racecheck_clean(repo_check):
    findings = repo_check["simrace"]
    assert not findings, "\n" + format_findings_text(
        findings, tool="simrace")

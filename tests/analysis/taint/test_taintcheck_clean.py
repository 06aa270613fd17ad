"""The taint gate: the repo must be simtaint-clean.

The determinism prong's enforcement point — a change that routes a
wall-clock read, unseeded entropy, an environment variable, ``id()``
or set iteration order into event scheduling, telemetry or an
artifact fails CI here (and via ``python -m repro check``).
Sanctioned reads are blessed in place with
``# simtaint: blessed=REASON``.
"""

from repro.analysis import format_findings_text


def test_repo_is_taintcheck_clean(repo_check):
    findings = repo_check["simtaint"]
    assert not findings, "\n" + format_findings_text(
        findings, tool="simtaint")

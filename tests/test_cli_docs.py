"""docs/CLI.md must stay in lockstep with the actual CLI."""

import re
from pathlib import Path

from repro.cli import build_parser

DOCS = Path(__file__).resolve().parent.parent / "docs" / "CLI.md"


def cli_subcommands():
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        return set(action.choices)
    raise AssertionError("CLI has no subparsers")


def documented_subcommands():
    text = DOCS.read_text(encoding="utf-8")
    # The summary table rows: | [`name`](#anchor) | ... |
    return set(re.findall(r"^\| \[`(\w+)`\]", text, flags=re.M))


def test_docs_exist():
    assert DOCS.is_file()


def test_every_subcommand_is_documented():
    missing = cli_subcommands() - documented_subcommands()
    assert not missing, f"undocumented subcommands: {sorted(missing)}"


def test_no_stale_documented_subcommands():
    stale = documented_subcommands() - cli_subcommands()
    assert not stale, f"documented but gone: {sorted(stale)}"


def test_documented_usage_lines_match_parser():
    """Each ``usage: repro <cmd>`` block in the docs names a real
    subcommand, and every flag it shows exists on that subparser."""
    text = DOCS.read_text(encoding="utf-8")
    parser = build_parser()
    choices = None
    for action in parser._subparsers._group_actions:
        choices = action.choices
    for match in re.finditer(r"usage: repro (\w+)((?:.|\n)*?)```", text):
        name, body = match.group(1), match.group(2)
        assert name in choices, name
        known = {option
                 for action in choices[name]._actions
                 for option in action.option_strings}
        for flag in re.findall(r"(--[a-z-]+)", body):
            assert flag in known, f"{name}: unknown flag {flag}"


PERF_DOCS = Path(__file__).resolve().parent.parent / "docs" \
    / "PERFORMANCE.md"


def test_performance_playbook_exists_and_is_linked():
    assert PERF_DOCS.is_file()
    repo = PERF_DOCS.parent.parent
    for linker in ("README.md", "EXPERIMENTS.md", "docs/CLI.md",
                   "docs/ARCHITECTURE.md"):
        assert "PERFORMANCE.md" in \
            (repo / linker).read_text(encoding="utf-8"), \
            f"{linker} does not link the performance playbook"


def test_performance_playbook_examples_use_real_flags():
    """Every ``repro <cmd> --flag`` example in PERFORMANCE.md names a
    real subcommand and only flags that subparser accepts."""
    text = PERF_DOCS.read_text(encoding="utf-8")
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        choices = action.choices
    for line in re.findall(r"python -m repro (\w+)([^\n]*)", text):
        name, rest = line
        assert name in choices, f"unknown subcommand {name!r}"
        known = {option
                 for action in choices[name]._actions
                 for option in action.option_strings}
        for flag in re.findall(r"(--[a-z-]+)", rest):
            assert flag in known, \
                f"PERFORMANCE.md: {name}: unknown flag {flag}"


def test_performance_playbook_names_current_baseline():
    """The worked case study must reference the committed baseline
    that actually exists (the trajectory convention it documents)."""
    repo = PERF_DOCS.parent.parent
    text = PERF_DOCS.read_text(encoding="utf-8")
    names = set(re.findall(r"BENCH_[0-9a-z-]+\.json", text))
    assert names, "playbook never names a BENCH_<date>.json file"
    for name in names:
        assert (repo / name).is_file(), \
            f"PERFORMANCE.md references {name}, which is not committed"


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_rule_tables_list_exactly_the_registered_rules():
    """Every ``| `RULE` | ... |`` row of README's rule tables is a
    registered rule id, and every registered id has its row."""
    from repro.analysis import all_rules
    from repro.analysis.race import RACE_RULES
    from repro.analysis.taint import TAINT_RULES
    registered = sorted(
        rule.rule_id for rule in
        all_rules() + [cls() for cls in RACE_RULES + TAINT_RULES])
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([A-Z]+\d{3})` \|", text, flags=re.M)
    assert sorted(rows) == registered

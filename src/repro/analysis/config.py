"""Linter configuration, read from ``pyproject.toml [tool.simlint]``.

Recognized keys (all optional)::

    [tool.simlint]
    paths = ["src/repro"]          # what `repro check` analyses by default
    select = ["DET", "FLW"]        # only these rules / families
    ignore = ["SQL003"]            # drop these rules / families
    sql-exclude = ["src/repro/sql"]  # paths exempt from SQL rules
    per-path-ignore = ["tests/sim:FLW002", "benchmarks:DET"]

``select``/``ignore`` entries may be full rule ids (``DET001``) or
family prefixes (``DET``); ``PARSE`` (a file that does not parse) is
not a rule and cannot be ignored, here or per path.
``per-path-ignore`` entries are
``"<path-prefix>:<rule-or-family>"`` — the rule is dropped for every
file at or under that prefix, so directories of test fixtures that
intentionally violate a rule stay suppressible without inline
comments.  Python 3.10 has no :mod:`tomllib`, so a minimal fallback
parser handles the small TOML subset above.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Iterable, Optional

try:
    import tomllib  # Python 3.11+
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None

__all__ = ["LintConfig", "DEFAULT_CONFIG", "load_config",
           "parse_simlint_table"]


@dataclass(frozen=True)
class LintConfig:
    """Which paths to lint and which rules to run."""

    paths: tuple[str, ...] = ("src/repro",)
    select: tuple[str, ...] = ()   # empty = all rules
    ignore: tuple[str, ...] = ()
    sql_exclude: tuple[str, ...] = ("src/repro/sql",)
    #: ``(path_prefix, rule_or_family)`` pairs; the rule is dropped for
    #: files at or under the prefix.
    per_path_ignore: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        ignored = self.ignore + tuple(
            pattern for _prefix, pattern in self.per_path_ignore)
        if _matches("PARSE", ignored):
            raise ValueError(
                "PARSE cannot be ignored: a file that does not parse "
                "is never analysed, so it must keep failing the gate")

    def rule_enabled(self, rule_id: str) -> bool:
        if self.select and not _matches(rule_id, self.select):
            return False
        return not _matches(rule_id, self.ignore)

    def rule_enabled_at(self, rule_id: str, path: str) -> bool:
        """Rule enabled, taking per-path ignores for ``path`` into
        account (used once the file being linted is known)."""
        if not self.rule_enabled(rule_id):
            return False
        normalized = _normalize(path)
        for prefix, pattern in self.per_path_ignore:
            if _path_under(normalized, prefix) and \
                    _matches(rule_id, (pattern,)):
                return False
        return True

    def narrowed(self, select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> "LintConfig":
        """This config with CLI ``--select``/``--ignore`` applied on
        top (CLI select replaces, CLI ignore accumulates)."""
        return LintConfig(
            paths=self.paths,
            select=tuple(select) if select else self.select,
            ignore=self.ignore + tuple(ignore or ()),
            sql_exclude=self.sql_exclude,
            per_path_ignore=self.per_path_ignore)

    def sql_excluded(self, path: str) -> bool:
        normalized = path.replace(os.sep, "/")
        return any(pattern in normalized for pattern in self.sql_exclude)


def _matches(rule_id: str, patterns: tuple[str, ...]) -> bool:
    return any(rule_id == p or rule_id.startswith(p) for p in patterns)


def _normalize(path: str) -> str:
    normalized = path.replace(os.sep, "/")
    while normalized.startswith("./"):
        normalized = normalized[2:]
    return normalized


def _path_under(path: str, prefix: str) -> bool:
    """Whether ``path`` lies at or under ``prefix``.

    The prefix may match anywhere in the path on directory boundaries,
    so a relative prefix like ``tests/sim`` also covers the absolute
    paths the test-suite gate lints (mirrors ``sql-exclude``)."""
    prefix = _normalize(prefix).rstrip("/")
    return (path == prefix or path.startswith(prefix + "/")
            or f"/{prefix}/" in path or path.endswith(f"/{prefix}"))


def _parse_per_path(entries: Iterable[str]) -> tuple[tuple[str, str], ...]:
    pairs: list[tuple[str, str]] = []
    for entry in entries:
        prefix, sep, rules = entry.partition(":")
        if not sep or not prefix.strip() or not rules.strip():
            raise ValueError(
                f"[tool.simlint] per-path-ignore entry must look like "
                f"'path/prefix:RULE', got {entry!r}")
        for rule in rules.split(","):
            if rule.strip():
                pairs.append((prefix.strip(), rule.strip()))
    return tuple(pairs)


DEFAULT_CONFIG = LintConfig()


# --------------------------------------------------------------- loading
def load_config(root: str = ".") -> LintConfig:
    """The config from ``<root>/pyproject.toml``, or defaults."""
    path = os.path.join(root, "pyproject.toml")
    if not os.path.exists(path):
        return DEFAULT_CONFIG
    with open(path, "rb") as handle:
        raw = handle.read()
    if tomllib is not None:
        table = tomllib.loads(raw.decode("utf-8")) \
            .get("tool", {}).get("simlint", {})
    else:  # pragma: no cover - Python 3.10 fallback
        table = parse_simlint_table(raw.decode("utf-8"))
    return config_from_table(table)


def config_from_table(table: dict) -> LintConfig:
    def str_list(key, default):
        value = table.get(key)
        if value is None:
            return default
        if not (isinstance(value, list)
                and all(isinstance(v, str) for v in value)):
            raise ValueError(
                f"[tool.simlint] {key} must be a list of strings, "
                f"got {value!r}")
        return tuple(value)

    return LintConfig(
        paths=str_list("paths", DEFAULT_CONFIG.paths),
        select=str_list("select", DEFAULT_CONFIG.select),
        ignore=str_list("ignore", DEFAULT_CONFIG.ignore),
        sql_exclude=str_list("sql-exclude", DEFAULT_CONFIG.sql_exclude),
        per_path_ignore=_parse_per_path(
            str_list("per-path-ignore", ())))


_TABLE_HEADER = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_KEY_VALUE = re.compile(r"^\s*(?P<key>[\w-]+)\s*=\s*(?P<value>.+?)\s*$")


def parse_simlint_table(text: str) -> dict:
    """Parse just the ``[tool.simlint]`` table of a TOML document.

    Supports exactly the subset this linter's config uses: string
    values and single-line arrays of strings.  Used only on Python
    3.10, where the stdlib has no TOML parser.
    """
    table: dict = {}
    in_table = False
    for line in text.splitlines():
        stripped = line.split("#", 1)[0] if '"' not in line else line
        header = _TABLE_HEADER.match(stripped)
        if header:
            in_table = header.group("name").strip() == "tool.simlint"
            continue
        if not in_table:
            continue
        pair = _KEY_VALUE.match(stripped)
        if not pair:
            continue
        table[pair.group("key")] = _parse_value(pair.group("value"))
    return table


def _parse_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(item) for item in _split_items(inner)]
    if (text.startswith('"') and text.endswith('"')) or \
            (text.startswith("'") and text.endswith("'")):
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"unsupported TOML value in [tool.simlint]: {text!r}")


def _split_items(inner: str) -> list[str]:
    items, depth, current, quote = [], 0, "", None
    for char in inner:
        if quote:
            current += char
            if char == quote:
                quote = None
            continue
        if char in "\"'":
            quote = char
            current += char
        elif char == "[":
            depth += 1
            current += char
        elif char == "]":
            depth -= 1
            current += char
        elif char == "," and depth == 0:
            items.append(current.strip())
            current = ""
        else:
            current += char
    if current.strip():
        items.append(current.strip())
    return items

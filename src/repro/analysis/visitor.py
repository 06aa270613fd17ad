"""Rule framework: the lint context, the Rule base class, shared AST
helpers and the ``# simlint: disable=...`` suppression machinery."""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from .config import LintConfig
from .findings import Finding

__all__ = ["LintContext", "Rule", "all_rules", "qualified_name",
           "iter_functions", "own_nodes", "is_generator"]

#: ``# simlint: disable`` suppresses every rule on that line;
#: ``# simlint: disable=DET001,SQL002`` suppresses the listed rules.
_SUPPRESSION = re.compile(
    r"#\s*simlint:\s*disable(?:\s*=\s*(?P<rules>[\w,\s]+))?")


class LintContext:
    """Everything a rule needs about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 config: LintConfig):
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self.findings: list[Finding] = []
        #: Per-file facts shared by every rule of the pass (function
        #: list, generator set, CFGs, the TNT analysis): see
        #: :meth:`memo`.
        self.cache: dict = {}
        self._suppressions = _parse_suppressions(source)
        #: module-level ``NAME = "literal"`` assignments, used by the
        #: SQL rules to resolve f-string placeholders like
        #: ``{HEARTBEAT_TABLE}`` to their actual text.
        self.module_constants = _module_string_constants(tree)

    def memo(self, key: str, build):
        """``build()``, computed once for this file and shared by
        every rule that asks under ``key``."""
        try:
            return self.cache[key]
        except KeyError:
            value = self.cache[key] = build()
            return value

    def functions(self) -> list:
        """Every (sync or async) function definition in the file."""
        return self.memo("functions",
                         lambda: list(iter_functions(self.tree)))

    def generators(self) -> frozenset:
        """The :meth:`functions` that are generators (for membership
        tests; nodes hash by identity)."""
        return self.memo("generators", lambda: frozenset(
            function for function in self.functions()
            if is_generator(function)))

    def report(self, node: ast.AST, rule_id: str, message: str,
               hint: str = "", related: tuple = ()) -> None:
        """Record a finding unless the line suppresses the rule."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        if self.is_suppressed(line, rule_id):
            return
        self.findings.append(Finding(self.path, line, column, rule_id,
                                     message, hint, tuple(related)))

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self._suppressions.get(line)
        if rules is None:
            return False
        return not rules or rule_id in rules or \
            any(rule_id.startswith(family) for family in rules)


class Rule:
    """One named check.  Subclasses set ``rule_id``/``description``
    and implement :meth:`check` to walk ``context.tree`` and call
    ``context.report`` for each violation."""

    rule_id: str = ""
    description: str = ""
    hint: str = ""

    def check(self, context: LintContext) -> None:
        raise NotImplementedError

    def report(self, context: LintContext, node: ast.AST,
               message: str) -> None:
        context.report(node, self.rule_id, message, hint=self.hint)


def all_rules() -> list[Rule]:
    """One instance of every project-free rule, DET/SQL then FLW (the
    RACE and TNT rules need a project model: see ``race_rules`` /
    ``taint_rules``)."""
    from .flow import rules as flowrules
    from .rules import determinism, sqlcheck
    return [cls() for module in (determinism, sqlcheck, flowrules)
            for cls in module.RULES]


# ----------------------------------------------------------- AST helpers
def qualified_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a Name/Attribute chain, e.g. ``time.time`` or
    ``np.random.default_rng``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every (sync or async) function definition in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def own_nodes(function: ast.AST) -> tuple[ast.AST, ...]:
    """A function's body nodes, not descending into nested function
    or class definitions (their yields/calls belong to *them*).
    Walked once and parked on the node — every engine asks — so it
    lives as long as the parsed tree, which no rule mutates."""
    nodes = getattr(function, "_own_nodes", None)
    if nodes is None:
        found = []
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            found.append(node)
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(node))
        nodes = function._own_nodes = tuple(found)
    return nodes


def is_generator(function: ast.AST) -> bool:
    return any(isinstance(node, (ast.Yield, ast.YieldFrom))
               for node in own_nodes(function))


# ------------------------------------------------------------- internals
def _parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """line -> suppressed rule ids (empty set = suppress everything)."""
    suppressions: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "simlint" not in text:
            continue
        match = _SUPPRESSION.search(text)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[lineno] = frozenset()
        else:
            suppressions[lineno] = frozenset(
                rule.strip() for rule in rules.split(",") if rule.strip())
    return suppressions


def _module_string_constants(tree: ast.Module) -> dict[str, str]:
    constants: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            constants[node.targets[0].id] = node.value.value
        elif isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                isinstance(node.value, ast.Constant) and \
                isinstance(node.value.value, str):
            constants[node.target.id] = node.value.value
    return constants

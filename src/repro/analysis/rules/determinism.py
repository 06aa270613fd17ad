"""DET rules: every source of nondeterminism is banned in ``src/repro``.

The reproduction's replication-delay measurements are microsecond
scale; any wall-clock read, OS entropy, global RNG state or
memory-address-dependent iteration order silently breaks the
guarantee that the same seed produces byte-identical results.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..visitor import LintContext, Rule, qualified_name

__all__ = ["ImportResolver", "WallClockRule", "StdlibRandomRule",
           "OsEntropyRule", "NumpyGlobalRngRule", "SetIterationRule",
           "IdOrderingRule", "RULES"]


class ImportResolver:
    """Resolve local names through the module's imports.

    ``import numpy as np`` makes ``np.random.default_rng`` resolve to
    ``numpy.random.default_rng``; ``from time import time as wall``
    makes ``wall`` resolve to ``time.time``.
    """

    def __init__(self, tree: ast.Module):
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and \
                    not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of a Name/Attribute chain, with
        the leading segment mapped through the import table."""
        dotted = qualified_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        mapped = self._aliases.get(head)
        if mapped is None:
            return dotted
        return f"{mapped}.{rest}" if rest else mapped


def import_resolver(context: LintContext) -> ImportResolver:
    """The file's import table, built once for all DET/SIM rules."""
    return context.memo("imports",
                        lambda: ImportResolver(context.tree))


class _CallRule(Rule):
    """Base for rules that ban calls to specific dotted names."""

    def check(self, context: LintContext) -> None:
        resolver = import_resolver(context)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                resolved = resolver.resolve(node.func)
                if resolved is not None:
                    self.check_call(context, node, resolved)

    def check_call(self, context: LintContext, node: ast.Call,
                   resolved: str) -> None:
        raise NotImplementedError


class WallClockRule(_CallRule):
    """DET001: no wall-clock reads — simulated time is ``sim.now``."""

    rule_id = "DET001"
    description = "wall-clock time read in simulation code"
    hint = "use Simulator.now (simulated seconds) instead of the " \
           "host clock"

    BANNED = frozenset((
        "time.time", "time.time_ns", "time.monotonic",
        "time.monotonic_ns", "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.clock_gettime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    ))

    def check_call(self, context, node, resolved):
        if resolved in self.BANNED:
            self.report(context, node,
                        f"call to {resolved}() reads the host clock")


class StdlibRandomRule(Rule):
    """DET002: the stdlib ``random`` module is global, unseeded state;
    all draws must come from RandomStreams."""

    rule_id = "DET002"
    description = "stdlib random module used instead of RandomStreams"
    hint = "draw from a named repro.sim.rng.RandomStreams stream"

    def check(self, context: LintContext) -> None:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        self.report(context, node,
                                    "import of the stdlib random module")
            elif isinstance(node, ast.ImportFrom):
                if node.module and not node.level and \
                        node.module.split(".")[0] == "random":
                    self.report(context, node,
                                "import from the stdlib random module")


class OsEntropyRule(_CallRule):
    """DET003: no OS entropy sources."""

    rule_id = "DET003"
    description = "OS entropy source (urandom/uuid/secrets)"
    hint = "derive values from a named RandomStreams stream"

    BANNED = frozenset(("os.urandom", "uuid.uuid1", "uuid.uuid4"))

    def check_call(self, context, node, resolved):
        if resolved in self.BANNED or resolved.startswith("secrets."):
            self.report(context, node,
                        f"call to {resolved}() draws OS entropy")


class NumpyGlobalRngRule(_CallRule):
    """DET004: no numpy global-state RNG and no unseeded generators."""

    rule_id = "DET004"
    description = "numpy global or unseeded RNG"
    hint = "build generators via RandomStreams (SeedSequence-derived)"

    #: Constructors that are fine as long as they are seeded — the
    #: RandomStreams implementation itself uses these.
    ALLOWED = frozenset((
        "numpy.random.Generator", "numpy.random.PCG64",
        "numpy.random.SeedSequence", "numpy.random.BitGenerator",
        "numpy.random.Philox", "numpy.random.SFC64",
    ))

    def check_call(self, context, node, resolved):
        if not resolved.startswith("numpy.random."):
            return
        if resolved in self.ALLOWED:
            return
        if resolved == "numpy.random.default_rng":
            unseeded = not node.args or (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None)
            if unseeded:
                self.report(context, node,
                            "numpy.random.default_rng() without a seed "
                            "is entropy-seeded")
            return
        self.report(context, node,
                    f"{resolved}() uses numpy's global RNG state")


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and \
        node.func.id in ("set", "frozenset")


class SetIterationRule(Rule):
    """DET005: iterating a set visits elements in hash order, which
    varies across processes (PYTHONHASHSEED) for str keys — poison for
    anything feeding the event queue or metrics aggregation."""

    rule_id = "DET005"
    description = "iteration over a set (hash order)"
    hint = "iterate sorted(...) of the set, or use a list/dict"

    def check(self, context: LintContext) -> None:
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)) and \
                    _is_set_expression(node.iter):
                self.report(context, node.iter,
                            "for-loop iterates a set in hash order")
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_set_expression(comp.iter):
                        self.report(context, comp.iter,
                                    "comprehension iterates a set in "
                                    "hash order")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("list", "tuple") and \
                    len(node.args) == 1 and \
                    _is_set_expression(node.args[0]):
                self.report(context, node,
                            f"{node.func.id}() of a set captures hash "
                            f"order")


def _lambda_calls_id(node: ast.Lambda) -> bool:
    return any(isinstance(sub, ast.Call)
               and isinstance(sub.func, ast.Name) and sub.func.id == "id"
               for sub in ast.walk(node.body))


class IdOrderingRule(Rule):
    """DET006: ordering by ``id()`` is memory-address ordering."""

    rule_id = "DET006"
    description = "ordering keyed on id() (memory addresses)"
    hint = "sort on a stable field (name, sequence number, time)"

    def check(self, context: LintContext) -> None:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            is_sort = (isinstance(node.func, ast.Name)
                       and node.func.id == "sorted") or \
                      (isinstance(node.func, ast.Attribute)
                       and node.func.attr == "sort")
            if not is_sort:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                value = keyword.value
                if isinstance(value, ast.Name) and value.id == "id":
                    self.report(context, node,
                                "sort keyed directly on id()")
                elif isinstance(value, ast.Lambda) and \
                        _lambda_calls_id(value):
                    self.report(context, node,
                                "sort key lambda calls id()")


RULES = (WallClockRule, StdlibRandomRule, OsEntropyRule,
         NumpyGlobalRngRule, SetIterationRule, IdOrderingRule)

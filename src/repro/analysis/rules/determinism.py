"""DET rules: the syntactic determinism bans in ``src/repro``.

The reproduction's replication-delay measurements are microsecond
scale; a wall-clock read (DET001), the stdlib ``random`` module's
global state (DET002) or hash-order iteration of a set (DET005)
silently breaks the guarantee that the same seed produces
byte-identical results.  OS entropy, numpy's global RNG and ``id()``
are taint *sources* instead (:mod:`..taint`): they report when they
reach a sink.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..visitor import LintContext, Rule, qualified_name

__all__ = ["ImportResolver", "WallClockRule", "StdlibRandomRule",
           "SetIterationRule", "RULES"]


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


def import_resolver(tree: ast.Module) -> ImportResolver:
    """``tree``'s import table, built once and parked on the module
    node (as :func:`~..visitor.own_nodes` does per function): DET001
    and the taint summaries read the same one."""
    resolver = getattr(tree, "_import_resolver", None)
    if resolver is None:
        resolver = tree._import_resolver = ImportResolver(tree)
    return resolver


class WallClockRule(Rule):
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

    def check(self, context: LintContext) -> None:
        resolver = import_resolver(context.tree)
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                resolved = resolver.resolve(node.func)
                if resolved in self.BANNED:
                    self.report(context, node,
                                f"call to {resolved}() reads the host "
                                f"clock")


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


RULES = (WallClockRule, StdlibRandomRule, SetIterationRule)

"""RACE001: the stale-read-across-yield atomicity violation.

In the cooperative kernel every ``yield`` is a preemption point (and
``Process.interrupt`` can throw *into* one), so knowledge about shared
state (see :mod:`.shared`) gathered before a yield is stale after it.
The rule rides the flow plane's dataflow solver with the
``transform`` hook flipping a "crossed a yield" flag on each fact: a
shared attribute is read (into a local), a yield intervenes, and the
attribute is written back without re-reading it — the classic lost
update.

Findings carry the *both-locations* payload (read + yield crossed)
that :mod:`..sarif` renders as ``relatedLocations``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..visitor import LintContext, Rule, qualified_name
from ..flow.cfg import CFGNode, node_expressions
from ..flow.dataflow import DataflowProblem, solve_forward
from ..flow.rules import (_assigned_value, _single_name_target,
                          function_cfg)
from .callgraph import ProjectModel
from .shared import SharedStateInventory

__all__ = ["RACE_RULES", "race_rules", "StaleWriteBackRule"]

_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
           ast.ClassDef)


def _walk_own(node: ast.AST) -> Iterator[ast.AST]:
    """Walk without descending into *nested* defs/classes/lambdas
    (the root itself is walked even when it is a function)."""
    root = node
    stack = [node]
    while stack:
        sub = stack.pop()
        yield sub
        if sub is not root and isinstance(sub, _OPAQUE):
            continue
        stack.extend(ast.iter_child_nodes(sub))


class _FunctionView:
    """One function's race-relevant view: shared accesses and
    preemption points, resolved against the project model."""

    def __init__(self, function, cls: Optional[str],
                 model: ProjectModel, inventory: SharedStateInventory):
        self.function = function
        self.cls = cls
        self.model = model
        self.inventory = inventory

    # -- shared-chain classification --------------------------------------
    def chain_if_shared(self, attr: ast.Attribute) -> Optional[str]:
        chain = qualified_name(attr)
        if chain is None:
            return None
        on_self = isinstance(attr.value, ast.Name) and \
            attr.value.id == "self"
        cls = self.cls if on_self else None
        if on_self and cls is None:
            return None
        if self.inventory.is_shared(attr.attr, cls):
            return chain
        return None

    def shared_loads(self, expr: ast.AST):
        """``(chain, Attribute)`` for every shared read in ``expr``."""
        for sub in _walk_own(expr):
            if isinstance(sub, ast.Attribute) and \
                    isinstance(sub.ctx, ast.Load):
                chain = self.chain_if_shared(sub)
                if chain is not None:
                    yield chain, sub

    def shared_writes(self, expr: ast.AST):
        """``(chain, Attribute)`` for every shared store/delete."""
        for sub in _walk_own(expr):
            if isinstance(sub, ast.Attribute) and \
                    isinstance(sub.ctx, (ast.Store, ast.Del)):
                chain = self.chain_if_shared(sub)
                if chain is not None:
                    yield chain, sub

    # -- per-CFG-node accessors -------------------------------------------
    def loads_at(self, node: CFGNode):
        for expr in node_expressions(node):
            yield from self.shared_loads(expr)

    def writes_at(self, node: CFGNode):
        for expr in node_expressions(node):
            yield from self.shared_writes(expr)

    def preempts(self, node: CFGNode) -> bool:
        """Whether executing this node can suspend the process."""
        for expr in node_expressions(node):
            for sub in _walk_own(expr):
                if isinstance(sub, ast.Yield):
                    return True
                if isinstance(sub, ast.YieldFrom) and \
                        self.model.yieldfrom_preempts(sub):
                    return True
        return False


# --------------------------------------------------------------- facts
@dataclass(frozen=True)
class _Stale:
    """A local holding a shared read; crossed when yield_line > 0."""

    var: str
    chain: str
    line: int
    col: int
    yield_line: int = 0


class _StaleReadProblem(DataflowProblem):
    """``_Stale`` facts per local; ``transform`` marks the surviving
    ones at preemption nodes."""

    def __init__(self, view: _FunctionView):
        self.view = view

    def gen(self, node: CFGNode) -> frozenset:
        stmt = node.stmt
        target = _single_name_target(stmt) if stmt is not None else None
        if target is None:
            return frozenset()
        value = _assigned_value(stmt)
        if value is None:
            return frozenset()
        return frozenset(
            _Stale(target.id, chain, attr.lineno, attr.col_offset)
            for chain, attr in self.view.shared_loads(value))

    def kill(self, node: CFGNode, facts: frozenset) -> frozenset:
        if not facts:
            return frozenset()
        touched = {chain for chain, _ in self.view.loads_at(node)}
        touched |= {chain for chain, _ in self.view.writes_at(node)}
        target = _single_name_target(node.stmt) \
            if node.stmt is not None else None
        rebound = target.id if target is not None else None
        return frozenset(fact for fact in facts
                         if fact.chain in touched
                         or fact.var == rebound)

    def transform(self, node: CFGNode, facts: frozenset) -> frozenset:
        if not facts or not self.view.preempts(node):
            return facts
        line = node.stmt.lineno if node.stmt is not None else 0
        return frozenset(
            fact if fact.yield_line else replace(fact, yield_line=line)
            for fact in facts)


# ---------------------------------------------------------------- rule
class StaleWriteBackRule(Rule):
    """RACE001.  Project-aware: constructed with the resolved model."""

    rule_id = "RACE001"
    description = "shared attribute read, yielded across, then " \
                  "written back without re-read (lost update)"
    hint = "re-read the attribute after the yield (and re-validate), " \
           "or restructure so read and write share one atomic step"

    def __init__(self, model: Optional[ProjectModel] = None,
                 inventory: Optional[SharedStateInventory] = None):
        self.model = model
        self.inventory = inventory

    def check(self, context: LintContext) -> None:
        if self.model is None or self.inventory is None:
            return  # not wired to a project: nothing to prove
        module = self.model.module_for(context.path)
        if module is None:
            return  # not a file of the project the model was built on
        generators = context.generators()
        for info in module.all_functions:
            if info.node in generators:
                self._check_function(context, _FunctionView(
                    info.node, info.cls, self.model, self.inventory))

    def _check_function(self, context: LintContext,
                        view: _FunctionView) -> None:
        if not any(True for _ in view.shared_loads(view.function)):
            return
        cfg = function_cfg(context, view.function)
        result = solve_forward(cfg, _StaleReadProblem(view))
        seen = set()
        for node in cfg.nodes:
            writes = list(view.writes_at(node))
            if not writes:
                continue
            entering = result.entering(node)
            for chain, wnode in writes:
                for fact in sorted(entering,
                                   key=lambda f: (f.line, f.col)):
                    if fact.chain != chain or not fact.yield_line:
                        continue
                    key = (wnode.lineno, wnode.col_offset, chain)
                    if key in seen:
                        continue
                    seen.add(key)
                    context.report(
                        wnode, self.rule_id,
                        f"shared {chain!r} read at line {fact.line} "
                        f"is written back after a yield at line "
                        f"{fact.yield_line} without re-reading it",
                        hint=self.hint,
                        related=(
                            (context.path, fact.line, fact.col,
                             f"'{chain}' read here"),
                            (context.path, fact.yield_line, 0,
                             "yield point crossed here")))
                    break


RACE_RULES = (StaleWriteBackRule,)


def race_rules(model: ProjectModel,
               inventory: Optional[SharedStateInventory] = None) -> list:
    """One instance of every RACE rule, wired to ``model``."""
    from .shared import build_inventory
    if inventory is None:
        inventory = build_inventory(model)
    return [cls(model, inventory) for cls in RACE_RULES]

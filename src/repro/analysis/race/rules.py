"""RACE rules: stale-read-across-yield atomicity violations.

All five rules share one premise: in the cooperative kernel every
``yield`` is a preemption point (and ``Process.interrupt`` can throw
*into* one), so knowledge about shared state (see :mod:`.shared`)
gathered before a yield is stale after it.  The first two rules ride
the flow plane's dataflow solver with the ``transform`` hook flipping
a "crossed a yield" flag on each fact; the rest are structural.

* **RACE001** — a shared attribute is read (into a local), a yield
  intervenes, and the attribute is written back without re-reading
  it: the classic lost update.
* **RACE002** — check-then-act: a branch tests shared state, a yield
  intervenes, and the branch body acts on the tested object (writes
  it, or calls something mutating on it).  Re-reading the state
  between the yield and the act — e.g. a poll loop whose header
  re-tests every iteration — refreshes the check and suppresses the
  finding.
* **RACE003** — iterating a shared collection with a yield inside the
  loop body: the collection can change under the iterator.  Iterating
  a copy (``list(shared)``) is the sanctioned fix and does not fire.
* **RACE004** — interrupt-unsafe publication: a shared write between
  ``try:`` and the first yield of a ``finally``-guarded region, with
  no restoring write in the ``finally``.  An interrupt landing in the
  yield unwinds to the cleanup, leaving the half-published write
  visible forever.
* **RACE005** — a may-yield call inside a region FLW003 proved must
  be atomic (an open ``begin``/``commit`` pairing): the transaction
  is open across a preemption.

Findings carry the *both-locations* payload (read + conflicting
write/yield) that :mod:`..sarif` renders as ``relatedLocations``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..visitor import LintContext, Rule, qualified_name
from ..flow.cfg import CFGNode, node_expressions
from ..flow.dataflow import DataflowProblem, solve_forward
from ..flow.rules import (_assigned_value, _single_name_target,
                          _TransactionProblem, function_cfg)
from .callgraph import _COLLECTION_MUTATORS, ProjectModel
from .shared import SharedStateInventory

__all__ = ["RACE_RULES", "race_rules", "StaleWriteBackRule",
           "CheckThenActRule", "SharedIterationRule",
           "InterruptPublicationRule", "AtomicRegionYieldRule"]

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

    def node_preemption_in(self, stmts) -> Optional[ast.AST]:
        """First preemption point (by line) inside a statement list."""
        best = None
        for stmt in stmts:
            for sub in _walk_own(stmt):
                if isinstance(sub, ast.Yield) or (
                        isinstance(sub, ast.YieldFrom) and
                        self.model.yieldfrom_preempts(sub)):
                    if best is None or sub.lineno < best.lineno:
                        best = sub
        return best


# --------------------------------------------------------- fact types
@dataclass(frozen=True)
class _Stale:
    """A local holding a shared read; crossed when yield_line > 0."""

    var: str
    chain: str
    line: int
    col: int
    yield_line: int = 0


@dataclass(frozen=True)
class _Check:
    """A branch condition over shared state."""

    chain: str
    line: int
    col: int
    yield_line: int = 0


def _cross(facts: frozenset, line: int) -> frozenset:
    return frozenset(
        fact if fact.yield_line else replace(fact, yield_line=line)
        for fact in facts)


class _CrossingProblem(DataflowProblem):
    """Shared transform: mark surviving facts at preemption nodes."""

    def __init__(self, view: _FunctionView):
        self.view = view

    def transform(self, node: CFGNode, facts: frozenset) -> frozenset:
        if not facts or not self.view.preempts(node):
            return facts
        line = node.stmt.lineno if node.stmt is not None else 0
        return _cross(facts, line)

    def _touched_chains(self, node: CFGNode) -> set:
        touched = {chain for chain, _ in self.view.loads_at(node)}
        touched |= {chain for chain, _ in self.view.writes_at(node)}
        return touched


class _StaleReadProblem(_CrossingProblem):
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
        touched = self._touched_chains(node)
        target = _single_name_target(node.stmt) \
            if node.stmt is not None else None
        rebound = target.id if target is not None else None
        return frozenset(fact for fact in facts
                         if fact.chain in touched
                         or fact.var == rebound)


class _CheckProblem(_CrossingProblem):
    def gen(self, node: CFGNode) -> frozenset:
        stmt = node.stmt
        if not isinstance(stmt, (ast.If, ast.While)):
            return frozenset()
        return frozenset(
            _Check(chain, attr.lineno, attr.col_offset)
            for chain, attr in self.view.shared_loads(stmt.test))

    def kill(self, node: CFGNode, facts: frozenset) -> frozenset:
        if not facts:
            return frozenset()
        touched = self._touched_chains(node)
        return frozenset(fact for fact in facts
                         if fact.chain in touched)


# ----------------------------------------------------------- rule base
class _RaceRule(Rule):
    """Project-aware rule: constructed with the resolved model.

    ``purity`` (a :class:`~..taint.purity.PuritySummaries`, wired in
    by ``repro check``) upgrades the name-union mutation heuristics to
    precise call resolution: a call every resolved target of which is
    proven pure stops counting as a state-changing act."""

    def __init__(self, model: Optional[ProjectModel] = None,
                 inventory: Optional[SharedStateInventory] = None,
                 purity=None):
        self.model = model
        self.inventory = inventory
        self.purity = purity

    def check(self, context: LintContext) -> None:
        if self.model is None or self.inventory is None:
            return  # not wired to a project: nothing to prove
        module = self.model.module_for(context.path)
        if module is None:
            return  # not a file of the project the model was built on
        generators = context.generators()
        for info in module.all_functions:
            if info.node in generators:
                self.check_function(context, _FunctionView(
                    info.node, info.cls, self.model, self.inventory))

    def check_function(self, context: LintContext,
                       view: _FunctionView) -> None:
        raise NotImplementedError

    def report_pair(self, context: LintContext, node: ast.AST,
                    message: str, related: tuple) -> None:
        context.report(node, self.rule_id, message, hint=self.hint,
                       related=related)


def _read_loc(context, fact, chain) -> tuple:
    return (context.path, fact.line, fact.col,
            f"'{chain}' read here")


def _yield_loc(context, line: int) -> tuple:
    return (context.path, line, 0, "yield point crossed here")


class StaleWriteBackRule(_RaceRule):
    rule_id = "RACE001"
    description = "shared attribute read, yielded across, then " \
                  "written back without re-read (lost update)"
    hint = "re-read the attribute after the yield (and re-validate), " \
           "or restructure so read and write share one atomic step"

    def check_function(self, context, view) -> None:
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
                    self.report_pair(
                        context, wnode,
                        f"shared {chain!r} read at line {fact.line} "
                        f"is written back after a yield at line "
                        f"{fact.yield_line} without re-reading it",
                        related=(_read_loc(context, fact, chain),
                                 _yield_loc(context,
                                            fact.yield_line)))
                    break


def _related_chains(act: str, checked: str) -> bool:
    """Does acting on ``act`` invalidate a check of ``checked``?"""
    if act == checked:
        return True
    return act.startswith(checked + ".") or \
        checked.startswith(act + ".")


class CheckThenActRule(_RaceRule):
    rule_id = "RACE002"
    description = "branch on shared state, then act after a yield " \
                  "without re-checking"
    hint = "re-test the condition after the yield, or move the act " \
           "into the same atomic step as the check"

    def check_function(self, context, view) -> None:
        if not any(isinstance(node, (ast.If, ast.While))
                   for node in _walk_own(view.function)):
            return
        if not any(True for _ in view.shared_loads(view.function)):
            return
        cfg = function_cfg(context, view.function)
        result = solve_forward(cfg, _CheckProblem(view))
        seen = set()
        for node in cfg.nodes:
            acts = self._acts_at(view, node)
            if not acts:
                continue
            entering = result.entering(node)
            for act_chain, anode, what in acts:
                for fact in sorted(entering,
                                   key=lambda f: (f.line, f.col)):
                    if not fact.yield_line or \
                            not _related_chains(act_chain, fact.chain):
                        continue
                    key = (anode.lineno, anode.col_offset, fact.chain)
                    if key in seen:
                        continue
                    seen.add(key)
                    self.report_pair(
                        context, anode,
                        f"{fact.chain!r} was checked at line "
                        f"{fact.line}, but a yield at line "
                        f"{fact.yield_line} precedes this {what} — "
                        f"the check may be stale",
                        related=(_read_loc(context, fact, fact.chain),
                                 _yield_loc(context,
                                            fact.yield_line)))
                    break

    def _acts_at(self, view, node: CFGNode) -> list:
        """``(chain, node, kind)`` for each state-changing action."""
        acts = [(chain, wnode, "write")
                for chain, wnode in view.writes_at(node)]
        for expr in node_expressions(node):
            for sub in _walk_own(expr):
                if not (isinstance(sub, ast.Call) and
                        isinstance(sub.func, ast.Attribute)):
                    continue
                receiver = qualified_name(sub.func.value)
                if receiver is None:
                    continue
                name = sub.func.attr
                if name in _COLLECTION_MUTATORS or \
                        view.model.method_mutates(name):
                    if self.purity is not None and \
                            self._proven_pure(view, sub):
                        continue
                    acts.append((receiver, sub,
                                 f"mutating call {name}()"))
        return acts

    def _proven_pure(self, view, call: ast.Call) -> bool:
        """Precise override of the name-union heuristic: when purity
        summaries prove every resolved target of this call pure (and
        yield-free), it is not an act — e.g. a class whose ``update``
        method only *reads* state no longer trips the collection-
        mutator fallback."""
        caller = view.model.function_for_node(view.function)
        return self.purity.call_verdict(call, caller=caller) == "pure"


_VIEW_METHODS = frozenset(("values", "items", "keys"))


class SharedIterationRule(_RaceRule):
    rule_id = "RACE003"
    description = "iteration over a shared collection spans a yield"
    hint = "iterate a snapshot instead: list(shared) / tuple(shared)"

    def _iter_chain(self, view, iter_expr) -> Optional[str]:
        if isinstance(iter_expr, ast.Attribute):
            return view.chain_if_shared(iter_expr)
        if isinstance(iter_expr, ast.Call) and \
                isinstance(iter_expr.func, ast.Attribute) and \
                iter_expr.func.attr in _VIEW_METHODS and \
                isinstance(iter_expr.func.value, ast.Attribute):
            chain = view.chain_if_shared(iter_expr.func.value)
            if chain is not None:
                return f"{chain}.{iter_expr.func.attr}()"
        return None

    def check_function(self, context, view) -> None:
        for node in _walk_own(view.function):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            chain = self._iter_chain(view, node.iter)
            if chain is None:
                continue
            preemption = view.node_preemption_in(node.body)
            if preemption is None:
                continue
            self.report_pair(
                context, node,
                f"iterating shared {chain!r} across a yield at line "
                f"{preemption.lineno} — the collection can change "
                f"under the iterator",
                related=((context.path, node.iter.lineno,
                          node.iter.col_offset,
                          f"'{chain}' iterated here"),
                         _yield_loc(context, preemption.lineno)))


class InterruptPublicationRule(_RaceRule):
    rule_id = "RACE004"
    description = "shared write between try: and its first yield is " \
                  "not restored by the finally"
    hint = "publish after the last yield, or roll the write back in " \
           "the finally block"

    def check_function(self, context, view) -> None:
        for node in _walk_own(view.function):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            preemption = view.node_preemption_in(node.body)
            if preemption is None:
                continue
            restored = {chain for stmt in node.finalbody
                        for chain, _ in view.shared_writes(stmt)}
            for stmt in node.body:
                for chain, wnode in view.shared_writes(stmt):
                    if wnode.lineno >= preemption.lineno or \
                            chain in restored:
                        continue
                    self.report_pair(
                        context, wnode,
                        f"shared {chain!r} is written before the "
                        f"first yield (line {preemption.lineno}) of "
                        f"a finally-guarded region; an interrupt "
                        f"leaves the write published with the "
                        f"operation half done",
                        related=((context.path, wnode.lineno,
                                  wnode.col_offset,
                                  f"'{chain}' published here"),
                                 _yield_loc(context,
                                            preemption.lineno)))


class AtomicRegionYieldRule(_RaceRule):
    rule_id = "RACE005"
    description = "yield point inside an open begin/commit region"
    hint = "commit (or roll back) before yielding, or move the " \
           "yield outside the transaction"

    def check_function(self, context, view) -> None:
        if not any(isinstance(node, ast.Call) and
                   isinstance(node.func, ast.Attribute) and
                   node.func.attr == "begin"
                   for node in _walk_own(view.function)):
            return
        cfg = function_cfg(context, view.function)
        result = solve_forward(cfg, _TransactionProblem())
        best: dict = {}
        for node in cfg.nodes:
            if node.stmt is None or not view.preempts(node):
                continue
            for claim in result.entering(node):
                key = (claim.receiver, claim.line, claim.col)
                if key not in best or \
                        node.stmt.lineno < best[key][0]:
                    best[key] = (node.stmt.lineno, node.stmt)
        for (receiver, line, col), (yline, stmt) in \
                sorted(best.items()):
            anchor = ast.Pass()
            anchor.lineno = yline
            anchor.col_offset = stmt.col_offset
            self.report_pair(
                context, anchor,
                f"transaction begun on {receiver!r} at line {line} "
                f"is still open across this yield — the region "
                f"FLW003 proves atomic is preempted here",
                related=((context.path, line, col,
                          f"'{receiver}.begin()' here"),
                         _yield_loc(context, yline)))


RACE_RULES = (StaleWriteBackRule, CheckThenActRule,
              SharedIterationRule, InterruptPublicationRule,
              AtomicRegionYieldRule)


def race_rules(model: ProjectModel,
               inventory: Optional[SharedStateInventory] = None,
               purity=None) -> list:
    """One instance of every RACE rule, wired to ``model`` (and,
    under ``repro check``, to the purity summaries)."""
    from .shared import build_inventory
    if inventory is None:
        inventory = build_inventory(model)
    return [cls(model, inventory, purity=purity) for cls in RACE_RULES]

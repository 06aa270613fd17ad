"""FLW rules: flow-sensitive acquire/release pairing proofs.

Both rules are clients of the same two layers: :mod:`.cfg` builds one
control-flow graph per function and :mod:`.dataflow` runs a gen/kill
worklist over it.  FLW001 and FLW002 share :class:`_PairingProblem`
verbatim — only the *acquire-site matcher* (and the report text)
differ.

Ownership model for acquired handles (``v = yield from
pool.acquire()``, ``v = resource.request()``):

* ``X.release(v)`` settles the claim;
* ``return v`` (anywhere in the returned expression) transfers
  ownership to the caller;
* passing ``v`` to a constructor-like callee (last name segment
  capitalized, e.g. ``PooledConnection(self, v, ...)``) transfers
  ownership to the new object;
* storing ``v`` on an attribute (``self.request = v``) transfers
  ownership to the object;
* ``yield v`` / ``yield from v`` waits on the handle — neither a
  transfer nor an escape;
* passing ``v`` to any other call, or storing it into a subscript
  (``table[k] = v``), *escapes* it with no owner on record, and the
  claim stops being this function's to prove.

A claim still live on any edge into ``<exit>`` — normal or exception —
is a leak: FLW001/FLW002 report it at the acquire site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from ..visitor import LintContext, Rule, own_nodes, qualified_name
from .cfg import (CFGNode, ControlFlowGraph, build_cfg, FunctionNode,
                  node_expressions)
from .dataflow import DataflowProblem, solve_forward

__all__ = ["PoolAcquireLeakRule", "ResourceRequestLeakRule", "RULES",
           "function_cfg"]


@dataclass(frozen=True)
class Claim:
    """One unresolved acquisition, keyed by the local variable name."""

    var: str
    line: int
    col: int
    desc: str


def function_cfg(context: LintContext,
                 function: FunctionNode) -> ControlFlowGraph:
    """The control-flow graph of ``function``, built once per file
    pass and shared by every rule family (FLW, RACE, TNT)."""
    cfgs = context.memo("cfgs", dict)
    cfg = cfgs.get(function)
    if cfg is None:
        cfg = cfgs[function] = build_cfg(function)
    return cfg


# ------------------------------------------------------- AST matchers
def _call_attr(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _single_name_target(stmt: ast.AST) -> Optional[ast.Name]:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
            isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0]
    if isinstance(stmt, ast.AnnAssign) and \
            isinstance(stmt.target, ast.Name) and stmt.value is not None:
        return stmt.target
    return None


def _assigned_value(stmt: ast.AST) -> Optional[ast.AST]:
    if isinstance(stmt, ast.Assign):
        return stmt.value
    if isinstance(stmt, ast.AnnAssign):
        return stmt.value
    return None


def _names_in(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id


# ------------------------------------------------ shared pairing core
class _PairingProblem(DataflowProblem):
    """Gen/kill for acquire/release pairing.

    ``match_acquire`` decides whether an assigned value is an
    acquisition — the only ingredient FLW001 and FLW002 do not share.
    """

    def __init__(self, match_acquire):
        self.match_acquire = match_acquire

    def gen(self, node: CFGNode) -> frozenset:
        stmt = node.stmt
        target = _single_name_target(stmt) if stmt is not None else None
        if target is None:
            return frozenset()
        desc = self.match_acquire(_assigned_value(stmt))
        if desc is None:
            return frozenset()
        return frozenset({Claim(target.id, stmt.lineno,
                                stmt.col_offset, desc)})

    def kill(self, node: CFGNode, facts: frozenset) -> frozenset:
        if not facts:
            return frozenset()
        live = {claim.var for claim in facts}
        dead_vars: set[str] = set()
        for expr in node_expressions(node):
            dead_vars |= _settled_vars(expr, live)
        # Rebinding the variable also ends the old claim.
        stmt = node.stmt
        if stmt is not None:
            target = _single_name_target(stmt)
            if target is not None and target.id in live:
                dead_vars.add(target.id)
        return frozenset(claim for claim in facts
                         if claim.var in dead_vars)


def _settled_vars(expr: ast.AST, live: set[str]) -> set[str]:
    """Variables whose claim ends at this statement fragment — by
    release, ownership transfer, or escape (see module docstring)."""
    settled: set[str] = set()
    if isinstance(expr, ast.Return) and expr.value is not None:
        settled |= set(_names_in(expr.value)) & live
    if isinstance(expr, ast.Delete):
        settled |= {target.id for target in expr.targets
                    if isinstance(target, ast.Name)} & live
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Call):
            arg_names = {arg.id for arg in sub.args
                         if isinstance(arg, ast.Name)}
            arg_names |= {kw.value.id for kw in sub.keywords
                          if isinstance(kw.value, ast.Name)}
            # release(...), constructor transfer, or escape — all end
            # this function's proof obligation for those vars.
            settled |= arg_names & live
        elif isinstance(sub, (ast.Assign, ast.AnnAssign)):
            value = _assigned_value(sub)
            if value is None or not isinstance(value, ast.Name) or \
                    value.id not in live:
                continue
            targets = sub.targets if isinstance(sub, ast.Assign) \
                else [sub.target]
            if any(isinstance(t, (ast.Attribute, ast.Subscript))
                   for t in targets):
                settled.add(value.id)
    return settled


class _PairingRule(Rule):
    """Shared driver: solve the pairing problem per function, report
    claims alive at exit.  Subclasses supply the acquire matcher."""

    def match_acquire(self, value: Optional[ast.AST]) -> Optional[str]:
        raise NotImplementedError

    def _has_acquire_site(self, function: FunctionNode) -> bool:
        for node in own_nodes(function):
            if _single_name_target(node) is not None and \
                    self.match_acquire(_assigned_value(node)) is not None:
                return True
        return False

    def check(self, context: LintContext) -> None:
        problem = _PairingProblem(self.match_acquire)
        for function in context.functions():
            if not self._has_acquire_site(function):
                continue
            cfg = function_cfg(context, function)
            result = solve_forward(cfg, problem)
            for claim in sorted(result.at_exit,
                                key=lambda c: (c.line, c.col, c.var)):
                anchor = ast.copy_location(ast.Pass(), function)
                anchor.lineno = claim.line
                anchor.col_offset = claim.col
                self.report(
                    context, anchor,
                    f"{claim.desc} result {claim.var!r} (line "
                    f"{claim.line}) can reach the end of "
                    f"{function.name!r} without being released")


class PoolAcquireLeakRule(_PairingRule):
    """FLW001: a pooled connection borrowed via ``pool.acquire()`` must
    be released on every path, exception edges included."""

    rule_id = "FLW001"
    description = "pool.acquire() result not released on every path"
    hint = "release the connection in a finally: block"

    def match_acquire(self, value):
        call = value.value if isinstance(value, ast.YieldFrom) else value
        if isinstance(call, ast.Call) and _call_attr(call) == "acquire":
            receiver = qualified_name(call.func.value) or "pool"
            return f"{receiver}.acquire()"
        return None


class ResourceRequestLeakRule(_PairingRule):
    """FLW002: a ``Resource.request()`` claim must be released on every
    path — an unreleased claim holds (or queues for) a slot forever."""

    rule_id = "FLW002"
    description = "Resource.request() without release on some path"
    hint = "wrap the wait and the work in try/finally: release(req) " \
           "(releasing an ungranted request cancels it)"

    def match_acquire(self, value):
        call = value.value if isinstance(value, ast.YieldFrom) else value
        if isinstance(call, ast.Call) and _call_attr(call) == "request":
            receiver = qualified_name(call.func.value) or "resource"
            return f"{receiver}.request()"
        return None


RULES = (PoolAcquireLeakRule, ResourceRequestLeakRule)

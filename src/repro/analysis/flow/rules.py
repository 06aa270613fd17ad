"""FLW rules: flow-sensitive resource/transaction pairing proofs.

Every rule here is a client of the same two layers: :mod:`.cfg` builds
one control-flow graph per function and :mod:`.dataflow` runs a
gen/kill worklist over it.  FLW001 and FLW002 share
:class:`_PairingProblem` verbatim — only the *acquire-site matcher*
(and the report text) differ — which is what keeps the family cheap to
extend.

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
  (``table[k] = v``), *escapes* it with no owner on record — FLW005
  reports the site, and the claim stops being this function's to
  prove.

A claim still live on any edge into ``<exit>`` — normal or exception —
is a leak: FLW001/FLW002 report it at the acquire site.

When a *purity oracle* is wired in (``check_paths`` passes the taint
plane's :class:`~..taint.purity.PuritySummaries` verdicts), passing
``v`` to a call **proven pure and yield-free** neither settles nor
escapes the claim — ``validate(v)`` can no longer silently discharge
a leak proof.  Constructor-like calls keep transferring ownership
regardless (allocation is pure, but the new object owns the handle).
Without one (``lint_source`` on a bare source: every callee unknown)
any call settles, as it does for a callee the oracle cannot resolve.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Optional

from ..visitor import LintContext, Rule, own_nodes, qualified_name
from .cfg import (CFGNode, ControlFlowGraph, build_cfg, FunctionNode,
                  node_expressions)
from .dataflow import DataflowProblem, solve_forward

__all__ = ["PoolAcquireLeakRule", "ResourceRequestLeakRule",
           "TransactionLeakRule", "UnreachableYieldRule",
           "HandleEscapeRule", "SpanLeakRule", "RULES", "function_cfg"]


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
    pass and shared by every rule family (FLW, OBS001, RACE, TNT)."""
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


def _callee_tail(call: ast.Call) -> Optional[str]:
    """Last segment of the callee's dotted name (``Pool`` for
    ``module.Pool(...)``), or None for computed callees."""
    dotted = qualified_name(call.func)
    if dotted is None:
        return None
    return dotted.rsplit(".", 1)[-1]


def _is_constructor_like(call: ast.Call) -> bool:
    tail = _callee_tail(call)
    return bool(tail) and tail[0].isupper()


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
    ``call_oracle(call, path) -> "pure"|"impure"|"unknown"`` (optional)
    lets proven-pure calls keep the claim alive instead of settling it.
    """

    def __init__(self, match_acquire, call_oracle=None, path=None):
        self.match_acquire = match_acquire
        self.call_oracle = call_oracle
        self.path = path

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
            dead_vars |= _settled_vars(expr, live,
                                       call_oracle=self.call_oracle,
                                       path=self.path)
        # Rebinding the variable also ends the old claim.
        stmt = node.stmt
        if stmt is not None:
            target = _single_name_target(stmt)
            if target is not None and target.id in live:
                dead_vars.add(target.id)
        return frozenset(claim for claim in facts
                         if claim.var in dead_vars)


def _settled_vars(expr: ast.AST, live: set[str],
                  call_oracle=None, path=None) -> set[str]:
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
            if not arg_names & live:
                continue
            # release(...), constructor transfer, or escape — all end
            # this function's proof obligation for those vars.  A call
            # the oracle proves pure does none of those: it cannot
            # release, cannot take ownership, and the claim stays this
            # function's to discharge.  Constructor-like calls are
            # exempt — ownership transfer is the sanctioned idiom even
            # though allocation itself is effect-free.
            if call_oracle is not None and \
                    not _is_constructor_like(sub) and \
                    call_oracle(sub, path) == "pure":
                continue
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


class _FlowRule(Rule):
    """Base for the FLW/OBS flow rules: optionally carries the purity
    oracle ``check_paths`` wires in (``None``: every callee is
    unknown, the conservative mode)."""

    def __init__(self, call_oracle=None):
        self.call_oracle = call_oracle


class _PairingRule(_FlowRule):
    """Shared driver: solve the pairing problem per function, report
    claims alive at exit.  Subclasses supply the acquire matcher (and
    may swap in a problem subclass with extra kill sites)."""

    problem_factory = _PairingProblem
    leak_verb = "released"

    def match_acquire(self, value: Optional[ast.AST]) -> Optional[str]:
        raise NotImplementedError

    def _has_acquire_site(self, function: FunctionNode) -> bool:
        for node in own_nodes(function):
            if _single_name_target(node) is not None and \
                    self.match_acquire(_assigned_value(node)) is not None:
                return True
        return False

    def check(self, context: LintContext) -> None:
        problem = self.problem_factory(self.match_acquire,
                                       call_oracle=self.call_oracle,
                                       path=context.path)
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
                    f"{function.name!r} without being {self.leak_verb}")


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


# ------------------------------------------------------- scoped spans
class _SpanProblem(_PairingProblem):
    """Pairing facts for scoped spans: a receiver-position
    ``v.end()`` also settles the claim (the shared core only settles
    argument-position uses)."""

    def kill(self, node: CFGNode, facts: frozenset) -> frozenset:
        dead = super().kill(node, facts)
        if len(dead) == len(facts):
            return dead
        live = {claim.var for claim in facts}
        ended: set[str] = set()
        for expr in node_expressions(node):
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call) and \
                        isinstance(sub.func, ast.Attribute) and \
                        sub.func.attr == "end" and \
                        isinstance(sub.func.value, ast.Name) and \
                        sub.func.value.id in live:
                    ended.add(sub.func.value.id)
        if not ended:
            return dead
        return frozenset(set(dead) |
                         {claim for claim in facts if claim.var in ended})


class SpanLeakRule(_PairingRule):
    """OBS001: a scoped span from ``tracer.span()`` must be closed on
    every path.  The ``with`` form discharges the obligation
    structurally; a bare assignment must reach ``end()`` (or transfer
    ownership) on every path, exception edges included.  Flow spans
    from ``tracer.open_span()`` are exempt by design — their ``end()``
    happens in another process."""

    rule_id = "OBS001"
    description = "tracer.span() opened without end() on every path"
    hint = "use 'with tracer.span(...):', end() in a finally: block, " \
           "or tracer.open_span() for cross-process handoffs"
    problem_factory = _SpanProblem
    leak_verb = "ended"

    def match_acquire(self, value):
        call = value.value if isinstance(value, ast.YieldFrom) else value
        if isinstance(call, ast.Call) and _call_attr(call) == "span":
            receiver = qualified_name(call.func.value)
            if receiver is not None and \
                    receiver.rsplit(".", 1)[-1].lower().endswith("tracer"):
                return f"{receiver}.span()"
        return None


# ------------------------------------------------------- transactions
@dataclass(frozen=True)
class TxnClaim:
    receiver: str
    line: int
    col: int


class _TransactionProblem(DataflowProblem):
    """Gen on ``X.begin()``, kill on ``X.commit()``/``X.rollback()``
    with the same receiver chain."""

    def gen(self, node: CFGNode) -> frozenset:
        claims = set()
        for expr in node_expressions(node):
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call) and \
                        _call_attr(sub) == "begin":
                    receiver = qualified_name(sub.func.value)
                    if receiver is not None:
                        claims.add(TxnClaim(receiver, sub.lineno,
                                            sub.col_offset))
        return frozenset(claims)

    def kill(self, node: CFGNode, facts: frozenset) -> frozenset:
        if not facts:
            return frozenset()
        receivers = {claim.receiver for claim in facts}
        ended: set[str] = set()
        for expr in node_expressions(node):
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call) and \
                        _call_attr(sub) in ("commit", "rollback"):
                    receiver = qualified_name(sub.func.value)
                    if receiver in receivers:
                        ended.add(receiver)
        return frozenset(claim for claim in facts
                         if claim.receiver in ended)


class TransactionLeakRule(_FlowRule):
    """FLW003: a ``begin`` that can reach function exit with neither
    ``commit`` nor ``rollback`` on that path."""

    rule_id = "FLW003"
    description = "transaction begin without commit/rollback on some path"
    hint = "commit on success and rollback in an except/finally block"

    @staticmethod
    def _has_begin(function: FunctionNode) -> bool:
        return any(isinstance(node, ast.Call) and
                   _call_attr(node) == "begin"
                   for node in own_nodes(function))

    def check(self, context: LintContext) -> None:
        problem = _TransactionProblem()
        for function in context.functions():
            if not self._has_begin(function):
                continue
            cfg = function_cfg(context, function)
            result = solve_forward(cfg, problem)
            for claim in sorted(result.at_exit,
                                key=lambda c: (c.line, c.col,
                                               c.receiver)):
                anchor = ast.Pass()
                anchor.lineno = claim.line
                anchor.col_offset = claim.col
                self.report(
                    context, anchor,
                    f"transaction begun on {claim.receiver!r} (line "
                    f"{claim.line}) can reach the end of "
                    f"{function.name!r} without commit or rollback")


# --------------------------------------------------- unreachable yield
class UnreachableYieldRule(_FlowRule):
    """FLW004: a ``yield`` the CFG proves unreachable (every path
    returns or raises first).  The ``yield`` still turns the function
    into a generator, so the dead statement silently changes the
    function's calling convention — a classic refactor leftover."""

    rule_id = "FLW004"
    description = "unreachable yield in a generator"
    hint = "delete the dead yield, or restore the path that reaches it"

    def check(self, context: LintContext) -> None:
        generators = context.generators()
        for function in context.functions():
            if function not in generators:
                continue
            cfg = function_cfg(context, function)
            reachable = cfg.reachable()
            for node in cfg.nodes:
                if node.index in reachable:
                    continue
                for expr in node_expressions(node):
                    for sub in ast.walk(expr):
                        if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                            self.report(
                                context, sub,
                                f"yield in {function.name!r} is "
                                f"unreachable: every path returns or "
                                f"raises before line {sub.lineno}")


# ------------------------------------------------------ handle escapes
class HandleEscapeRule(_FlowRule):
    """FLW005: an acquired handle passed to an arbitrary call or stored
    into a container leaves the function with no owner on record —
    nobody can prove it is ever released."""

    rule_id = "FLW005"
    description = "acquired handle escapes without ownership transfer"
    hint = "return the handle, wrap it in an owning object, or " \
           "release it here"

    #: Callee attribute names that settle the claim instead of
    #: escaping it.
    SANCTIONED = frozenset(("release",))

    def check(self, context: LintContext) -> None:
        for function in context.functions():
            handles = self._acquired_vars(function)
            if not handles:
                continue
            for node in own_nodes(function):
                self._check_node(context, function, node, handles)

    @staticmethod
    def _acquired_vars(function: FunctionNode) -> set[str]:
        acquired: set[str] = set()
        for node in own_nodes(function):
            target = _single_name_target(node)
            if target is None:
                continue
            value = _assigned_value(node)
            call = value.value if isinstance(value, ast.YieldFrom) \
                else value
            if isinstance(call, ast.Call) and \
                    _call_attr(call) in ("acquire", "request"):
                acquired.add(target.id)
        return acquired

    def _check_node(self, context, function, node, handles) -> None:
        if isinstance(node, ast.Call):
            if _is_constructor_like(node) or \
                    _call_attr(node) in self.SANCTIONED:
                return
            if self.call_oracle is not None and \
                    self.call_oracle(node, context.path) == "pure":
                # A proven-pure callee cannot retain the handle: the
                # value never escapes this function's ownership.
                return
            passed = [arg for arg in node.args
                      if isinstance(arg, ast.Name) and
                      arg.id in handles]
            passed += [kw.value for kw in node.keywords
                       if isinstance(kw.value, ast.Name) and
                       kw.value.id in handles]
            callee = qualified_name(node.func) or "<computed callee>"
            for arg in passed:
                self.report(
                    context, node,
                    f"handle {arg.id!r} escapes {function.name!r} via "
                    f"call to {callee}() without ownership transfer")
        elif isinstance(node, ast.Assign):
            value = node.value
            if not (isinstance(value, ast.Name) and value.id in handles):
                return
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self.report(
                        context, node,
                        f"handle {value.id!r} escapes {function.name!r} "
                        f"into a container without ownership transfer")


RULES = (PoolAcquireLeakRule, ResourceRequestLeakRule,
         TransactionLeakRule, UnreachableYieldRule, HandleEscapeRule,
         SpanLeakRule)

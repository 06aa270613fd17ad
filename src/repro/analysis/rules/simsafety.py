"""SIM rules: simulation processes must stay inside the simulation.

A *sim process* is a generator function that yields kernel events
(detected by at least one ``yield`` of a call to an event factory such
as ``sim.timeout(...)`` or ``sim.event()``, or of a variable assigned
from one).  Inside such a function, real time, real I/O and non-event
yields all break the discrete-event abstraction: the kernel would
either block the whole simulation or crash at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..visitor import LintContext, Rule, own_nodes, qualified_name
from .determinism import ImportResolver, import_resolver

__all__ = ["is_sim_process", "RealSleepRule", "RealIoRule",
           "NonEventYieldRule", "DoubleTriggerRule", "RULES"]

#: Simulator / Resource methods whose return value is an Event the
#: kernel knows how to wait on.
EVENT_FACTORIES = frozenset((
    "timeout", "event", "process", "any_of", "all_of",
    "acquire", "request", "get", "put", "wait",
))


def _yields_of(function: ast.AST) -> Iterator[ast.Yield]:
    for node in own_nodes(function):
        if isinstance(node, ast.Yield):
            yield node


def _event_factory_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Attribute) and \
        node.func.attr in EVENT_FACTORIES


def is_sim_process(function: ast.AST) -> bool:
    """True when the generator provably yields kernel events."""
    event_vars: set[str] = set()
    for node in own_nodes(function):
        if isinstance(node, ast.Assign) and \
                _event_factory_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    event_vars.add(target.id)
    for yielded in _yields_of(function):
        value = yielded.value
        if value is None:
            continue
        if _event_factory_call(value):
            return True
        if isinstance(value, ast.Name) and value.id in event_vars:
            return True
        # `yield a | b` / `yield a & b` — AnyOf/AllOf composition.
        if isinstance(value, ast.BinOp) and \
                isinstance(value.op, (ast.BitOr, ast.BitAnd)):
            for side in (value.left, value.right):
                if _event_factory_call(side) or (
                        isinstance(side, ast.Name)
                        and side.id in event_vars):
                    return True
    return False


def sim_processes(context: LintContext) -> list:
    """The file's sim processes, classified once for all SIM rules."""
    return context.memo("sim_processes", lambda: [
        function for function in context.functions()
        if is_sim_process(function)])


class _SimProcessRule(Rule):
    """Base for rules that inspect the body of each sim process."""

    def check(self, context: LintContext) -> None:
        resolver = import_resolver(context)
        for function in sim_processes(context):
            self.check_process(context, function, resolver)

    def check_process(self, context: LintContext,
                      function: ast.FunctionDef,
                      resolver: ImportResolver) -> None:
        raise NotImplementedError


class RealSleepRule(_SimProcessRule):
    """SIM001: ``time.sleep`` freezes the whole simulation."""

    rule_id = "SIM001"
    description = "real sleep inside a simulation process"
    hint = "yield sim.timeout(delay) instead of sleeping"

    def check_process(self, context, function, resolver):
        for node in own_nodes(function):
            if isinstance(node, ast.Call) and \
                    resolver.resolve(node.func) == "time.sleep":
                self.report(
                    context, node,
                    f"time.sleep() inside sim process "
                    f"{function.name!r} blocks the event loop")


class RealIoRule(_SimProcessRule):
    """SIM002: no real I/O (files, sockets, subprocesses) in a sim
    process — the simulation must be a pure function of its seed."""

    rule_id = "SIM002"
    description = "real I/O inside a simulation process"
    hint = "model the interaction as simulated events/resources"

    IO_PREFIXES = ("socket.", "subprocess.", "urllib.", "http.client.",
                   "requests.", "shutil.", "asyncio.")
    IO_CALLS = frozenset((
        "open", "input", "os.system", "os.popen", "os.fork",
        "socket.socket", "subprocess.run", "subprocess.Popen",
    ))

    def check_process(self, context, function, resolver):
        for node in own_nodes(function):
            if not isinstance(node, ast.Call):
                continue
            resolved = resolver.resolve(node.func)
            if resolved is None:
                continue
            if resolved in self.IO_CALLS or \
                    resolved.startswith(self.IO_PREFIXES):
                self.report(
                    context, node,
                    f"{resolved}() performs real I/O inside sim "
                    f"process {function.name!r}")


class NonEventYieldRule(_SimProcessRule):
    """SIM003: yielding anything but an Event kills the process at
    runtime (the kernel raises SimulationError); literals are provably
    not events, so flag them statically."""

    rule_id = "SIM003"
    description = "yield of a provably non-Event value"
    hint = "yield an Event (e.g. sim.timeout(...)); use `return` to " \
           "deliver a value"

    NON_EVENT_NODES = (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple,
                       ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
                       ast.DictComp, ast.GeneratorExp)

    def check_process(self, context, function, resolver):
        for yielded in _yields_of(function):
            value = yielded.value
            if value is None:
                self.report(
                    context, yielded,
                    f"bare yield in sim process {function.name!r} "
                    f"yields None, not an Event")
            elif isinstance(value, self.NON_EVENT_NODES):
                kind = type(value).__name__
                self.report(
                    context, yielded,
                    f"sim process {function.name!r} yields a {kind}, "
                    f"which is never an Event")


class DoubleTriggerRule(Rule):
    """SIM004: triggering the same event twice raises at runtime; a
    second ``succeed()``/``fail()`` on the same name with no
    intervening rebinding or branching is provable statically.

    Applies to every function (not only sim processes): callbacks and
    helpers trigger events too.
    """

    rule_id = "SIM004"
    description = "event triggered twice on a straight-line path"
    hint = "an Event fires once; create a fresh event or guard on " \
           "event.triggered"

    TRIGGERS = frozenset(("succeed", "fail"))

    def check(self, context: LintContext) -> None:
        for function in context.functions():
            self._scan_block(context, function.body)

    def _trigger_target(self, stmt: ast.stmt) -> Optional[str]:
        """``"ev"`` for a statement of the form ``ev.succeed(...)``."""
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            return None
        func = stmt.value.func
        if isinstance(func, ast.Attribute) and func.attr in self.TRIGGERS:
            return qualified_name(func.value)
        return None

    def _scan_block(self, context: LintContext,
                    body: list[ast.stmt]) -> None:
        triggered: dict[str, int] = {}
        for stmt in body:
            target = self._trigger_target(stmt)
            if target is not None:
                if target in triggered:
                    self.report(
                        context, stmt,
                        f"event {target!r} already triggered on line "
                        f"{triggered[target]} is triggered again")
                else:
                    triggered[target] = stmt.lineno
                continue
            if isinstance(stmt, ast.Assign):
                for node in stmt.targets:
                    name = qualified_name(node)
                    if name is not None:
                        triggered.pop(name, None)
                continue
            # Any control flow (if/loop/try/with) may rebind or guard:
            # stop proving across it, but scan its blocks on their own.
            if isinstance(stmt, (ast.If, ast.For, ast.While, ast.With,
                                 ast.Try, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                triggered.clear()
                for field in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field, None)
                    if inner:
                        self._scan_block(context, inner)
                for handler in getattr(stmt, "handlers", ()):
                    self._scan_block(context, handler.body)


RULES = (RealSleepRule, RealIoRule, NonEventYieldRule, DoubleTriggerRule)

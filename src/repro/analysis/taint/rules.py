"""TNT rules: determinism-taint source→sink violations.

All five rules are thin views over one shared per-file analysis (the
expensive part — one CFG dataflow solve per function — runs once and
is memoized in ``context.cache``):

* **TNT001** — a nondeterministic value (any kind) flows into kernel
  event scheduling: delays/priorities derived from the host clock or
  entropy make the event order itself irreproducible.
* **TNT002** — a value-nondet kind (wallclock/random/env/id) flows
  into a metric or span name/value: artifacts stop being
  byte-identical per seed.
* **TNT003** — a value-nondet kind flows into a replication payload
  or artifact write (binlog append, exporter write, ExperimentResult).
* **TNT004** — unordered ``set``/``frozenset`` iteration reaches
  ordered output (telemetry or artifacts) without passing through
  ``sorted()`` — hash order varies per process.
* **TNT005** — a wall-clock value steers simulation logic: branches
  on it, or stores it into object/simulation state.

Sanctioned escapes: route the value through ``sorted()`` (TNT004), a
*seeded* ``random.Random(seed)``, or bless the line explicitly with
``# simtaint: blessed=REASON`` (on the sink line or the line where
the taint enters the function) — the reason is mandatory, so every
exemption is self-documenting.  ``# simlint: disable=TNT00x`` works
too, but carries no reason and is reserved for tooling-internal code.

Findings carry the taint path (source, intermediate call hops, and —
for interprocedural sinks — the callee's sink line) as related
locations, rendered by text/JSON/SARIF alike.
"""

from __future__ import annotations

import ast
import os
import re
from typing import NamedTuple, Optional

from ..visitor import LintContext, Rule, qualified_name
from ..flow.cfg import node_expressions
from ..flow.dataflow import solve_forward
from ..flow.rules import function_cfg
from ..race.callgraph import ProjectModel
from .engine import (NONDET_KINDS, SINK_ARTIFACT, SINK_SCHEDULE,
                     SINK_TELEMETRY, TaintProblem, TaintSummaries,
                     call_arguments, env_of, expr_taint, sink_category,
                     _args_taint, _param_index)
from .purity import resolve_targets

__all__ = ["TAINT_RULES", "taint_rules", "NondetScheduleRule",
           "NondetTelemetryRule", "NondetArtifactRule",
           "UnorderedOutputRule", "WallClockSimLogicRule"]

#: ``# simtaint: blessed=REASON`` — the reason is required; a bare
#: ``blessed=`` does not match and the finding stands.
_BLESSED = re.compile(r"#\s*simtaint:\s*blessed=(\S+)")


def blessed_lines(source: str) -> dict:
    """line number -> blessing reason, for one file."""
    blessed: dict = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "simtaint" not in text:
            continue
        match = _BLESSED.search(text)
        if match:
            blessed[lineno] = match.group(1)
    return blessed


class _Hit(NamedTuple):
    """One pre-computed finding, before suppression filtering."""

    rule_id: str
    line: int
    col: int
    message: str
    related: tuple


def _rule_for(kind: str, category: str) -> Optional[str]:
    """The partition that prevents double-reporting: scheduling owns
    every kind; elsewhere ``unordered`` is TNT004's exclusively."""
    if category == SINK_SCHEDULE:
        return "TNT001"
    if kind == "unordered":
        return "TNT004"
    if kind not in NONDET_KINDS:
        return None
    if category == SINK_TELEMETRY:
        return "TNT002"
    if category == SINK_ARTIFACT:
        return "TNT003"
    return None


_SINK_NOUN = {SINK_SCHEDULE: "event scheduling",
              SINK_TELEMETRY: "telemetry",
              SINK_ARTIFACT: "an artifact/replication payload"}


def _rel(path: str) -> str:
    """Repo-relative rendering of a call-graph (absolute) path."""
    if os.path.isabs(path):
        relative = os.path.relpath(path)
        if not relative.startswith(".."):
            return relative
    return path


def _same_file(left: str, right: str) -> bool:
    return os.path.abspath(left) == os.path.abspath(right)


def _tag_related(context: LintContext, tag) -> tuple:
    related = [(_rel(tag.path), tag.line, tag.col,
                f"source: {tag.desc}")]
    for path, line, col, note in tag.via:
        related.append((_rel(path), line, col, f"via: {note}"))
    return tuple(related)


def _sink_desc(call: ast.Call) -> str:
    name = qualified_name(call.func)
    if name is None and isinstance(call.func, ast.Attribute):
        name = f"<expr>.{call.func.attr}"
    return f"{name or '<computed>'}()"


def _own_calls(expr: ast.AST):
    """Calls evaluated in this fragment, skipping nested defs."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class _FileAnalysis:
    """All TNT hits for one file, computed once per lint pass."""

    def __init__(self, context: LintContext, model: ProjectModel,
                 summaries: TaintSummaries):
        self.context = context
        self.model = model
        self.summaries = summaries
        self.blessed = blessed_lines(context.source)
        self.hits: list = []
        self._seen: set = set()
        module = model.module_for(context.path)
        if module is None:
            return
        # Module-level statements have no CFG; taint at module scope
        # is almost always constant-building and is left to the DET
        # rules.  Every function (any nesting) is analyzed.
        for info in module.all_functions:
            self._check_function(info)
        self.hits.sort(key=lambda h: (h.line, h.col, h.rule_id))

    # -- per function -------------------------------------------------
    def _check_function(self, info) -> None:
        ctx = self.summaries.context_for(info)
        cfg = function_cfg(self.context, info.node)
        result = solve_forward(cfg, TaintProblem(ctx))
        for node in cfg.nodes:
            if node.stmt is None:
                continue
            env = env_of(result.entering(node))
            for expr in node_expressions(node):
                if isinstance(expr, ast.withitem):
                    expr = expr.context_expr
                for call in _own_calls(expr):
                    self._check_sink_call(call, env, ctx, info)
            self._check_sim_logic(node, env, ctx)

    # -- sinks --------------------------------------------------------
    def _check_sink_call(self, call, env, ctx, info) -> None:
        category = sink_category(call, ctx.resolver)
        if category is not None:
            for tag in sorted(_args_taint(call, env, ctx)):
                if _param_index(tag) is not None:
                    continue  # the caller's caller gets the report
                rule_id = _rule_for(tag.kind, category)
                if rule_id is not None:
                    self._record(rule_id, call, tag, category,
                                 _sink_desc(call))
            return
        self._check_interproc_sinks(call, env, ctx, info)

    def _check_interproc_sinks(self, call, env, ctx, info) -> None:
        """A tainted argument handed to a callee whose summary says
        the parameter reaches a sink — report at this call site, with
        the callee's sink line as a related location."""
        targets = resolve_targets(self.model, call, info) or ()
        for target in targets:
            callee = self.summaries.by_key.get(target.key)
            if callee is None or not callee.param_sinks:
                continue
            for index, entry in call_arguments(call, target):
                sinks = callee.param_sinks.get(index)
                if not sinks:
                    continue
                for tag in sorted(expr_taint(entry, env, ctx)):
                    if _param_index(tag) is not None:
                        continue
                    for sink in sorted(sinks):
                        rule_id = _rule_for(tag.kind, sink.category)
                        if rule_id is None:
                            continue
                        extra = ((_rel(sink.path), sink.line, sink.col,
                                  f"sink: {sink.desc}"),)
                        self._record(rule_id, call, tag,
                                     sink.category,
                                     f"{target.qualname}()",
                                     extra_related=extra)

    # -- TNT005 -------------------------------------------------------
    def _check_sim_logic(self, node, env, ctx) -> None:
        stmt = node.stmt
        if isinstance(stmt, (ast.If, ast.While)):
            for tag in sorted(expr_taint(stmt.test, env, ctx)):
                if tag.kind == "wallclock":
                    self._record_simlogic(stmt.test, tag,
                                          "branches on it")
        elif isinstance(stmt, (ast.Assign, ast.AugAssign,
                               ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            if not any(isinstance(t, (ast.Attribute, ast.Subscript))
                       for t in targets):
                return
            for tag in sorted(expr_taint(stmt.value, env, ctx)
                              if stmt.value is not None
                              else frozenset()):
                if tag.kind == "wallclock":
                    self._record_simlogic(stmt, tag,
                                          "stores it into state")

    # -- recording ----------------------------------------------------
    def _is_blessed(self, sink_line: int, tag) -> bool:
        """Blessed on the sink line, the (same-file) tag line, or any
        same-file hop of the taint path — blessing the original read
        sanctions everything that flows from it."""
        if sink_line in self.blessed:
            return True
        if _same_file(tag.path, self.context.path) and \
                tag.line in self.blessed:
            return True
        return any(_same_file(path, self.context.path)
                   and line in self.blessed
                   for path, line, _col, _note in tag.via)

    def _record(self, rule_id, call, tag, category, sink_desc,
                extra_related: tuple = ()) -> None:
        # One finding per (sink, kind): a value that is unordered via
        # two routes is still one problem at this sink.
        key = (rule_id, call.lineno, call.col_offset, tag.kind,
               sink_desc)
        if key in self._seen or self._is_blessed(call.lineno, tag):
            return
        self._seen.add(key)
        noun = _SINK_NOUN[category]
        if rule_id == "TNT004":
            message = (f"unordered iteration order from {tag.desc} "
                       f"(line {tag.line}) reaches {noun} via "
                       f"{sink_desc} without a sort")
        else:
            message = (f"nondeterministic {tag.kind} value from "
                       f"{tag.desc} (line {tag.line}) flows into "
                       f"{noun} via {sink_desc}")
        self.hits.append(_Hit(rule_id, call.lineno, call.col_offset,
                              message,
                              _tag_related(self.context, tag)
                              + extra_related))

    def _record_simlogic(self, node, tag, what) -> None:
        key = ("TNT005", node.lineno, node.col_offset)
        if key in self._seen or self._is_blessed(node.lineno, tag):
            return
        self._seen.add(key)
        self.hits.append(_Hit(
            "TNT005", node.lineno, node.col_offset,
            f"wall-clock value from {tag.desc} (line {tag.line}) "
            f"steers simulation logic — this code {what}",
            _tag_related(self.context, tag)))


# ------------------------------------------------------------ the rules
class _TaintRule(Rule):
    """One TNT view over the shared per-file analysis."""

    def __init__(self, model: Optional[ProjectModel] = None,
                 summaries: Optional[TaintSummaries] = None):
        self.model = model
        self.summaries = summaries

    def check(self, context: LintContext) -> None:
        if self.model is None or self.summaries is None:
            return  # not wired to a project: nothing to prove
        analysis = context.memo("simtaint", lambda: _FileAnalysis(
            context, self.model, self.summaries))
        for hit in analysis.hits:
            if hit.rule_id != self.rule_id:
                continue
            anchor = ast.Pass()
            anchor.lineno = hit.line
            anchor.col_offset = hit.col
            context.report(anchor, self.rule_id, hit.message,
                           hint=self.hint, related=hit.related)


class NondetScheduleRule(_TaintRule):
    rule_id = "TNT001"
    description = "nondeterministic value flows into event scheduling"
    hint = "derive delays/priorities from sim state or a seeded " \
           "RandomStreams stream, or bless with " \
           "'# simtaint: blessed=REASON'"


class NondetTelemetryRule(_TaintRule):
    rule_id = "TNT002"
    description = "nondeterministic value flows into a metric or span"
    hint = "use sim.now / seeded streams for telemetry values, or " \
           "bless with '# simtaint: blessed=REASON'"


class NondetArtifactRule(_TaintRule):
    rule_id = "TNT003"
    description = "nondeterministic value flows into an artifact or " \
                  "replication payload"
    hint = "artifacts must be a pure function of the seed; bless " \
           "deliberate env/clock reads with " \
           "'# simtaint: blessed=REASON'"


class UnorderedOutputRule(_TaintRule):
    rule_id = "TNT004"
    description = "unordered iteration reaches ordered output " \
                  "without a sort"
    hint = "pass the set through sorted(...) before it reaches " \
           "telemetry or artifacts"


class WallClockSimLogicRule(_TaintRule):
    rule_id = "TNT005"
    description = "wall-clock value steers simulation logic"
    hint = "simulation decisions must read Simulator.now, never the " \
           "host clock; bless tooling-internal timing with " \
           "'# simtaint: blessed=REASON'"


TAINT_RULES = (NondetScheduleRule, NondetTelemetryRule,
               NondetArtifactRule, UnorderedOutputRule,
               WallClockSimLogicRule)


def taint_rules(model: ProjectModel,
                summaries: Optional[TaintSummaries] = None) -> list:
    """One instance of every TNT rule, wired to ``model`` and one
    shared summaries fixpoint."""
    if summaries is None:
        summaries = TaintSummaries(model)
    return [cls(model, summaries) for cls in TAINT_RULES]

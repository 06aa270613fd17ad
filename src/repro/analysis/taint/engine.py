"""Determinism-taint lattice: tags, sources, sanitizers, summaries.

The taint domain is small and concrete: a value is tainted when it
may depend on one of five nondeterminism **kinds** —

``wallclock``
    a host-clock read (the DET001 table: ``time.time`` & friends);
``random``
    an unseeded RNG / OS-entropy draw (``random.*`` module state,
    ``uuid.uuid4``, ``secrets``, un-seeded ``random.Random()``);
``env``
    a process-environment read (``os.environ``, ``os.getenv``);
``id``
    a memory address (``id()``);
``unordered``
    a ``set``/``frozenset`` whose iteration order is hash order.

Tags travel through expressions, assignments (the CFG dataflow pass
in :class:`TaintProblem`) and function boundaries (the flow-
insensitive :class:`TaintSummaries` fixpoint: what a function's
return value carries, which parameters pass through to the return,
and which parameters flow into which sink categories).  **Sanitizers**
erase taint: ``sorted()`` (and ``len``/``min``/``max``) erase
``unordered``; a *seeded* ``random.Random(seed)`` never produces the
``random`` kind; the ``# simtaint: blessed=REASON`` pragma is handled
by the rules layer.

Every tag remembers where its source is (``path``/``line``/``col``)
plus a bounded ``via`` chain of intermediate hops, which the TNT
rules surface as SARIF related locations — the reviewer sees the
whole taint path, not just the sink.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from ..rules.determinism import (ImportResolver, WallClockRule,
                                  import_resolver)
from ..visitor import own_nodes
from ..race.callgraph import FunctionInfo, ProjectModel
from .purity import _is_nondet_call, resolve_targets

__all__ = ["Tag", "SinkHit", "KINDS", "NONDET_KINDS", "TaintContext",
           "expr_taint", "TaintProblem", "FunctionTaint",
           "TaintSummaries", "sink_category", "SINK_SCHEDULE",
           "SINK_TELEMETRY", "SINK_ARTIFACT"]

#: The five taint kinds, in severity/reporting order.
KINDS = ("wallclock", "random", "env", "id", "unordered")

#: Value-nondeterminism kinds (everything but iteration order).
NONDET_KINDS = frozenset(("wallclock", "random", "env", "id"))

#: Longest ``via`` chain a tag carries; deeper hops are elided so the
#: summary fixpoint terminates on recursive call cycles.
_MAX_VIA = 3


class Tag(NamedTuple):
    """One taint mark: which kind, where it was born, how it got here.

    ``via`` is a tuple of ``(path, line, col, note)`` hops from source
    toward the present use, oldest first, capped at :data:`_MAX_VIA`.
    """

    kind: str
    path: str
    line: int
    col: int
    desc: str
    via: tuple = ()

    def hop(self, path: str, line: int, col: int, note: str) -> "Tag":
        """The same taint observed one call-boundary later."""
        via = self.via + ((self.path, self.line, self.col, self.desc),)
        return Tag(self.kind, path, line, col, note, via[-_MAX_VIA:])


# ------------------------------------------------------------ sinks
SINK_SCHEDULE = "schedule"
SINK_TELEMETRY = "telemetry"
SINK_ARTIFACT = "artifact"

#: Receiver-method names that feed the kernel event queue.
_SCHEDULE_ATTRS = frozenset(("timeout", "schedule"))
#: Bare constructors that carry a delay into the kernel.
_SCHEDULE_NAMES = frozenset(("Timeout",))

#: Tracer / metrics entry points: names and values become artifact
#: bytes via the exporters.
_TELEMETRY_ATTRS = frozenset((
    "span", "open_span", "instant", "set_attribute",
    "inc", "observe", "counter", "gauge", "histogram",
))

#: Replication payloads and artifact writers.
_ARTIFACT_ATTRS = frozenset(("write", "writerow", "send", "writelines"))
_ARTIFACT_CALLS = frozenset(("json.dump", "json.dumps"))
_ARTIFACT_NAMES = frozenset(("ExperimentResult",))


def sink_category(call: ast.Call,
                  resolver: Optional[ImportResolver]) -> Optional[str]:
    """The sink category a call feeds, or ``None``.

    ``.set(...)`` is deliberately *not* matched even though gauges use
    it — the name is too generic (events, dict-like APIs); gauge
    values still reach the rules through ``observe``/``inc`` and the
    exporter ``write`` calls.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in _SCHEDULE_ATTRS:
            return SINK_SCHEDULE
        if func.attr in _TELEMETRY_ATTRS:
            return SINK_TELEMETRY
        if func.attr in _ARTIFACT_ATTRS:
            return SINK_ARTIFACT
        if func.attr == "append" and _receiver_mentions(
                func.value, ("binlog", "log", "events")):
            return SINK_ARTIFACT
    elif isinstance(func, ast.Name):
        if func.id in _SCHEDULE_NAMES:
            return SINK_SCHEDULE
        if func.id in _ARTIFACT_NAMES:
            return SINK_ARTIFACT
    if resolver is not None:
        resolved = resolver.resolve(func)
        if resolved in _ARTIFACT_CALLS:
            return SINK_ARTIFACT
    return None


def _receiver_mentions(node: ast.AST, needles: tuple) -> bool:
    parts = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            parts.append(node.attr.lower())
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id.lower())
    return any(needle in part for part in parts for needle in needles)


class SinkHit(NamedTuple):
    """A recorded parameter→sink flow inside a summarized function."""

    category: str
    path: str
    line: int
    col: int
    desc: str


# ------------------------------------------------------ taint context
@dataclass
class TaintContext:
    """Everything :func:`expr_taint` needs to classify one file."""

    path: str
    resolver: ImportResolver
    model: ProjectModel
    caller: Optional[FunctionInfo] = None
    #: FunctionInfo.key -> FunctionTaint, from :class:`TaintSummaries`.
    summaries: dict = field(default_factory=dict)


_UNORDERED_SANITIZERS = frozenset(("sorted", "len", "min", "max"))

_ENV_ATTRS = frozenset(("os.environ", "os.environb"))
_ENV_CALLS = frozenset(("os.getenv",))


def _is_set_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and \
        node.func.id in ("set", "frozenset")


def _source_tag(ctx: TaintContext, node: ast.AST, kind: str,
                desc: str) -> Tag:
    return Tag(kind, ctx.path, node.lineno, node.col_offset, desc)


def _call_source_tags(call: ast.Call, ctx: TaintContext) -> frozenset:
    """Tags a call introduces by itself (independent of arguments)."""
    resolved = ctx.resolver.resolve(call.func)
    tags = set()
    if resolved is not None:
        if resolved in WallClockRule.BANNED:
            tags.add(_source_tag(ctx, call, "wallclock",
                                 f"{resolved}()"))
        elif resolved in _ENV_CALLS or \
                resolved.startswith("os.environ."):
            tags.add(_source_tag(ctx, call, "env", f"{resolved}()"))
        elif resolved == "id":
            tags.add(_source_tag(ctx, call, "id", "id()"))
        elif _is_nondet_call(resolved, call):
            tags.add(_source_tag(ctx, call, "random",
                                 f"{resolved}()"))
    if isinstance(call.func, ast.Name) and \
            call.func.id in ("set", "frozenset"):
        tags.add(_source_tag(ctx, call, "unordered",
                             f"{call.func.id}() (hash order)"))
    return frozenset(tags)


def expr_taint(expr: Optional[ast.AST], env: dict,
               ctx: TaintContext) -> frozenset:
    """All :class:`Tag`\\ s the value of ``expr`` may carry.

    ``env`` maps variable name -> frozenset[Tag].  The walk is a
    *may* union over sub-expressions; unknown calls conservatively
    propagate their argument/receiver taint (a pure function of a
    nondet input is still nondet).
    """
    if expr is None:
        return frozenset()
    if isinstance(expr, ast.Name):
        return env.get(expr.id, frozenset())
    if isinstance(expr, ast.Attribute):
        resolved = ctx.resolver.resolve(expr)
        if resolved in _ENV_ATTRS:
            return frozenset({_source_tag(ctx, expr, "env", resolved)})
        return expr_taint(expr.value, env, ctx)
    if isinstance(expr, (ast.Set, ast.SetComp)):
        tags = {_source_tag(
            ctx, expr, "unordered",
            "set literal" if isinstance(expr, ast.Set)
            else "set comprehension")}
        tags.update(_children_taint(expr, env, ctx))
        return frozenset(tags)
    if isinstance(expr, ast.Call):
        return _call_taint(expr, env, ctx)
    if isinstance(expr, ast.Compare):
        return _compare_taint(expr, env, ctx)
    if isinstance(expr, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
        return _comprehension_taint(expr, env, ctx)
    if isinstance(expr, ast.Lambda):
        return frozenset()   # its body runs elsewhere
    if isinstance(expr, ast.Constant):
        return frozenset()
    return _children_taint(expr, env, ctx)


def _children_taint(expr: ast.AST, env: dict,
                    ctx: TaintContext) -> frozenset:
    tags: set = set()
    for child in ast.iter_child_nodes(expr):
        tags.update(expr_taint(child, env, ctx))
    return frozenset(tags)


def _compare_taint(expr: ast.Compare, env: dict,
                   ctx: TaintContext) -> frozenset:
    """Membership tests are order-free: ``x in seen`` is deterministic
    however ``seen`` hashes, so an ``in``/``not in`` comparator sheds
    its ``unordered`` kind (other kinds survive — comparing against a
    wall-clock reading is still clock-dependent)."""
    tags: set = set(expr_taint(expr.left, env, ctx))
    for op, comparator in zip(expr.ops, expr.comparators):
        sub = expr_taint(comparator, env, ctx)
        if isinstance(op, (ast.In, ast.NotIn)):
            sub = frozenset(t for t in sub if t.kind != "unordered")
        tags.update(sub)
    return frozenset(tags)


#: Collection mutators that return ``None``: the *call expression*
#: carries no taint even when the receiver does (``seen.add(r)``
#: inside a filter must not re-taint the comprehension).
_NONE_RETURNING_MUTATORS = frozenset((
    "add", "append", "extend", "insert", "update", "discard",
    "remove", "clear", "sort", "reverse",
))


def _comprehension_taint(expr, env: dict, ctx: TaintContext) -> frozenset:
    tags: set = set(_children_taint(expr, env, ctx))
    for comp in expr.generators:
        iter_tags = expr_taint(comp.iter, env, ctx)
        if _is_set_literal(comp.iter) or \
                any(t.kind == "unordered" for t in iter_tags):
            tags.add(_source_tag(ctx, comp.iter, "unordered",
                                 "iteration over a set"))
    return frozenset(tags)


def _args_taint(call: ast.Call, env: dict,
                ctx: TaintContext) -> frozenset:
    tags: set = set()
    for arg in call.args:
        tags.update(expr_taint(arg, env, ctx))
    for keyword in call.keywords:
        tags.update(expr_taint(keyword.value, env, ctx))
    return frozenset(tags)


def _call_taint(call: ast.Call, env: dict,
                ctx: TaintContext) -> frozenset:
    func = call.func
    # Sanitizers first: sorted() pins an order, len/min/max collapse
    # the collection to an order-free scalar.  Other kinds survive —
    # sorted() of wall-clock readings is still wall-clock data.
    if isinstance(func, ast.Name) and \
            func.id in _UNORDERED_SANITIZERS:
        return frozenset(t for t in _args_taint(call, env, ctx)
                         if t.kind != "unordered")
    if isinstance(func, ast.Attribute) and \
            func.attr in _NONE_RETURNING_MUTATORS:
        return frozenset()
    tags: set = set(_call_source_tags(call, ctx))
    # A seeded Random(seed) constructor is the sanctioned RNG path:
    # no source tag was added above, and we deliberately do not
    # propagate argument taint out of it (the seed is config).
    resolved = ctx.resolver.resolve(func)
    if resolved in ("random.Random", "numpy.random.default_rng") and \
            (call.args or call.keywords) and \
            not any(t.kind == "random" for t in tags):
        return frozenset(tags)
    targets = resolve_targets(ctx.model, call, ctx.caller)
    if targets:
        interproc = _project_call_taint(call, env, ctx, targets)
        if interproc is not None:
            return frozenset(tags | interproc)
    # Unknown callee: conservative pass-through of receiver + args.
    if isinstance(func, ast.Attribute):
        tags.update(expr_taint(func.value, env, ctx))
    tags.update(_args_taint(call, env, ctx))
    return frozenset(tags)


def _project_call_taint(call: ast.Call, env: dict, ctx: TaintContext,
                        targets: list) -> Optional[frozenset]:
    """Return-value taint of a call resolved into the project, using
    the summaries; ``None`` when no target is summarized (fall back to
    the conservative pass-through)."""
    summarized = [ctx.summaries[t.key] for t in targets
                  if t.key in ctx.summaries]
    if not summarized:
        return None
    tags: set = set()
    for target, summary in zip(
            [t for t in targets if t.key in ctx.summaries],
            summarized):
        for orig in summary.returns:
            tags.add(orig.hop(ctx.path, call.lineno, call.col_offset,
                              f"returned by {target.qualname}()"))
        for index in summary.passthrough:
            entry = _call_argument(call, index, target)
            if entry is not None:
                tags.update(expr_taint(entry, env, ctx))
    return frozenset(tags)


def _call_argument(call: ast.Call, index: int,
                   target: FunctionInfo) -> Optional[ast.AST]:
    """The caller expression bound to callee parameter ``index``
    (receiver counts as parameter 0 for a method call)."""
    if target.cls is not None and isinstance(call.func, ast.Attribute):
        if index == 0:
            return call.func.value
        index -= 1
    if 0 <= index < len(call.args):
        arg = call.args[index]
        if not isinstance(arg, ast.Starred):
            return arg
    return None


def call_arguments(call: ast.Call, target: FunctionInfo) -> list:
    """``(callee_param_index, caller_expr)`` pairs for a call site."""
    pairs = []
    offset = 0
    if target.cls is not None and isinstance(call.func, ast.Attribute):
        pairs.append((0, call.func.value))
        offset = 1
    for position, arg in enumerate(call.args):
        if not isinstance(arg, ast.Starred):
            pairs.append((position + offset, arg))
    return pairs


# ------------------------------------------------- CFG dataflow problem
def _assign_targets(stmt: ast.AST) -> list:
    """``(name, value_expr)`` pairs a statement binds (Name targets
    only; tuple targets fan the whole RHS taint onto each element)."""
    pairs: list = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            pairs.extend(_target_names(target, stmt.value))
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        pairs.extend(_target_names(stmt.target, stmt.value))
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            pairs.append((stmt.target.id, stmt.value))
    return pairs


def _target_names(target: ast.AST, value: ast.AST) -> list:
    if isinstance(target, ast.Name):
        return [(target.id, value)]
    if isinstance(target, (ast.Tuple, ast.List)):
        pairs = []
        for element in target.elts:
            pairs.extend(_target_names(element, value))
        return pairs
    return []


def _value_mentions(value: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == name
               for sub in ast.walk(value))


def env_of(facts: frozenset) -> dict:
    """Rebuild the var -> tags map from solver facts."""
    env: dict = {}
    for var, tag in facts:
        env.setdefault(var, set()).add(tag)
    return {var: frozenset(tags) for var, tags in env.items()}


class TaintProblem:
    """Forward may-taint propagation for one function's CFG.

    Facts are ``(var, Tag)`` pairs.  Rebinding a variable kills its
    old tags *unless* the right-hand side mentions it (``x = x + 1``
    keeps the taint flowing); the actual propagation lives in
    :meth:`transform` because it needs the incoming facts — the
    solver contract requires it to be monotone and idempotent, and a
    pure union of RHS-derived tags is both.
    """

    def __init__(self, ctx: TaintContext):
        self.ctx = ctx

    def initial(self) -> frozenset:
        return frozenset()

    def gen(self, node) -> frozenset:
        return frozenset()

    def kill(self, node, facts: frozenset) -> frozenset:
        stmt = node.stmt
        if stmt is None:
            return frozenset()
        dead: set = set()
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for name, value in _assign_targets(stmt):
                if not _value_mentions(value, name):
                    dead.update(f for f in facts if f[0] == name)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name) and \
                        not _value_mentions(stmt.iter, sub.id):
                    dead.update(f for f in facts if f[0] == sub.id)
        return frozenset(dead)

    def transform(self, node, facts: frozenset) -> frozenset:
        stmt = node.stmt
        if stmt is None:
            return facts
        env = env_of(facts)
        born: set = set()
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for name, value in _assign_targets(stmt):
                for tag in expr_taint(value, env, self.ctx):
                    born.add((name, tag))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tags = set(expr_taint(stmt.iter, env, self.ctx))
            if _is_set_literal(stmt.iter) or \
                    any(t.kind == "unordered" for t in iter_tags):
                iter_tags.add(_source_tag(self.ctx, stmt.iter,
                                          "unordered",
                                          "iteration over a set"))
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name):
                    for tag in iter_tags:
                        born.add((sub.id, tag))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is None or \
                        not isinstance(item.optional_vars, ast.Name):
                    continue
                for tag in expr_taint(item.context_expr, env, self.ctx):
                    born.add((item.optional_vars.id, tag))
        if not born:
            return facts
        return facts | frozenset(born)


# --------------------------------------------------- function summaries
@dataclass
class FunctionTaint:
    """What escapes one function: return taint, parameter passthrough
    to the return, and parameter→sink flows."""

    #: Tags (in the callee's own file) the return value may carry.
    returns: frozenset = frozenset()
    #: Parameter indices whose taint reaches the return value.
    passthrough: frozenset = frozenset()
    #: param index -> frozenset[SinkHit] inside this function
    #: (transitively through further project calls).
    param_sinks: dict = field(default_factory=dict)

    def fingerprint(self) -> tuple:
        return (self.returns, self.passthrough,
                tuple(sorted((i, tuple(sorted(hits)))
                             for i, hits in self.param_sinks.items())))


_PARAM = "param"


def _param_tag(path: str, node: ast.AST, index: int,
               name: str) -> Tag:
    return Tag(f"{_PARAM}:{index}", path, node.lineno, node.col_offset,
               f"parameter {name!r}")


def _param_index(tag: Tag) -> Optional[int]:
    if tag.kind.startswith(f"{_PARAM}:"):
        return int(tag.kind.split(":", 1)[1])
    return None


#: The statement kinds a function summary is folded over.
_SUMMARIZED = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For,
               ast.AsyncFor, ast.Return, ast.Call, ast.With,
               ast.AsyncWith)


class TaintSummaries:
    """Flow-insensitive per-function taint summaries, iterated to a
    fixpoint over the project call graph.

    Flow-insensitivity is the right cost point here: the summary only
    answers "*may* the return / a sink depend on X", and the precise
    flow-sensitive verdict is re-derived per function by the rules on
    the CFG solver.  Convergence is guaranteed by the capped ``via``
    chains (tag sets are then finite) plus a global round bound.
    """

    #: Safety valve — far beyond any real call-graph diameter.
    MAX_ROUNDS = 25

    def __init__(self, model: ProjectModel):
        self.model = model
        self._resolvers = {path: import_resolver(module.tree)
                           for path, module in model.modules.items()}
        self.by_key: dict = {key: FunctionTaint()
                             for key in model.functions}
        #: function key -> the statements _summarize reads, in source
        #: order: walked and sorted once, not on every fixpoint round
        self._statements: dict = {
            key: sorted((node for node in own_nodes(info.node)
                         if isinstance(node, _SUMMARIZED)),
                        key=lambda n: (n.lineno, n.col_offset))
            for key, info in model.functions.items()}
        self._solve()

    def resolver_for(self, path: str) -> Optional[ImportResolver]:
        return self._resolvers.get(path)

    def context_for(self, info: FunctionInfo) -> TaintContext:
        return TaintContext(info.path, self._resolvers[info.path],
                            self.model, caller=info,
                            summaries=self.by_key)

    def summary(self, info: FunctionInfo) -> FunctionTaint:
        return self.by_key[info.key]

    # -- fixpoint -----------------------------------------------------
    def _solve(self) -> None:
        order = sorted(self.by_key)
        for _round in range(self.MAX_ROUNDS):
            changed = False
            for key in order:
                info = self.model.functions[key]
                updated = self._summarize(info)
                if updated.fingerprint() != \
                        self.by_key[key].fingerprint():
                    self.by_key[key] = updated
                    changed = True
            if not changed:
                break

    def _param_names(self, info: FunctionInfo) -> list:
        args = info.node.args
        return [a.arg for a in args.posonlyargs + args.args]

    def _summarize(self, info: FunctionInfo) -> FunctionTaint:
        ctx = self.context_for(info)
        env: dict = {}
        for index, name in enumerate(self._param_names(info)):
            env[name] = frozenset({_param_tag(info.path, info.node,
                                              index, name)})
        returns: set = set(self.by_key[info.key].returns)
        passthrough: set = set(self.by_key[info.key].passthrough)
        param_sinks: dict = {
            i: set(hits)
            for i, hits in self.by_key[info.key].param_sinks.items()}
        # Two source-order passes handle use-before-def in loops; the
        # outer project fixpoint supplies cross-call convergence.
        for _pass in range(2):
            for stmt in self._statements[info.key]:
                self._summarize_stmt(stmt, env, ctx, info, returns,
                                     passthrough, param_sinks)
        return FunctionTaint(
            frozenset(returns), frozenset(passthrough),
            {i: frozenset(hits)
             for i, hits in sorted(param_sinks.items()) if hits})

    def _bind(self, env: dict, name: str, tags: frozenset) -> None:
        env[name] = env.get(name, frozenset()) | tags

    def _summarize_stmt(self, stmt, env, ctx, info, returns,
                        passthrough, param_sinks) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for name, value in _assign_targets(stmt):
                self._bind(env, name, expr_taint(value, env, ctx))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            tags = expr_taint(stmt.iter, env, ctx)
            for sub in ast.walk(stmt.target):
                if isinstance(sub, ast.Name):
                    self._bind(env, sub.id, tags)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    self._bind(env, item.optional_vars.id,
                               expr_taint(item.context_expr, env, ctx))
        elif isinstance(stmt, ast.Return):
            for tag in expr_taint(stmt.value, env, ctx):
                index = _param_index(tag)
                if index is not None:
                    passthrough.add(index)
                else:
                    returns.add(tag)
        elif isinstance(stmt, ast.Call):
            self._summarize_call(stmt, env, ctx, info, param_sinks)

    def _summarize_call(self, call, env, ctx, info,
                        param_sinks) -> None:
        # Direct sink: a parameter's taint reaches a sink call here.
        category = sink_category(call, ctx.resolver)
        if category is not None:
            for tag in _args_taint(call, env, ctx):
                index = _param_index(tag)
                if index is None:
                    continue
                param_sinks.setdefault(index, set()).add(SinkHit(
                    category, info.path, call.lineno, call.col_offset,
                    f"{info.qualname}() feeds it into a {category} "
                    f"sink"))
            return
        # Transitive: a parameter is handed to a callee whose own
        # summary records a parameter→sink flow.
        targets = resolve_targets(self.model, call, info) or ()
        for target in targets:
            callee = self.by_key.get(target.key)
            if callee is None or not callee.param_sinks:
                continue
            for callee_index, entry in call_arguments(call, target):
                hits = callee.param_sinks.get(callee_index)
                if not hits:
                    continue
                for tag in expr_taint(entry, env, ctx):
                    index = _param_index(tag)
                    if index is None:
                        continue
                    for hit in sorted(hits):
                        param_sinks.setdefault(index, set()).add(hit)

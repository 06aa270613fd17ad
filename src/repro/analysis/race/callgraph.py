"""Project-wide call graph and interprocedural may-yield summaries.

The kernel's delegation idiom makes yield points *interprocedural*:
``yield from pool.acquire(...)`` suspends the calling process exactly
when ``acquire`` (or something it delegates to) contains a plain
``yield``.  A function therefore **may-yield** when

* it contains a plain ``yield`` expression (it always hands an Event
  to the kernel), or
* it contains ``yield from g(...)`` where some resolvable ``g``
  may-yield (least fixpoint over the call graph — a recursion cycle
  with no plain yield stays non-yielding), or
* it contains ``yield from <unresolvable>`` (a computed callee or a
  generator-valued variable) — conservatively treated as yielding.

Call-site resolution is name/attribute based, in decreasing
precision:

1. ``f(...)`` — the module-level ``f`` of the same module, else every
   project function named ``f``;
2. ``self.m(...)`` — method ``m`` of the enclosing class, else every
   project function named ``m`` (the dynamic-dispatch fallback);
3. ``obj.m(...)`` / ``a.b.m(...)`` — every project function named
   ``m`` (union over possible receivers);
4. anything else (subscripts, calls-of-calls) — unresolved.

The same resolution feeds root reachability for the shared-state
inventory (:mod:`.shared`), where over-approximation errs toward
calling more state "shared" — the safe direction for a race checker.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..visitor import own_nodes

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectModel",
           "build_project_model"]


@dataclass
class FunctionInfo:
    """One function or method in the scanned project."""

    path: str                     # normalized absolute path
    module: str                   # display name, e.g. "proxy"
    cls: Optional[str]            # enclosing class, None for functions
    name: str
    node: ast.AST                 # the FunctionDef / AsyncFunctionDef
    #: Resolved callees, as FunctionInfo keys (filled by the builder).
    callees: set = field(default_factory=set)
    may_yield: bool = False

    @property
    def key(self) -> tuple:
        return (self.path, self.cls or "", self.name,
                self.node.lineno)

    @property
    def qualname(self) -> str:
        """Stable display name for tests: ``module.Class.method``."""
        if self.cls:
            return f"{self.module}.{self.cls}.{self.name}"
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    """Per-file symbol tables."""

    path: str
    name: str
    tree: ast.Module
    #: module-level ``def`` name -> FunctionInfo
    functions: dict = field(default_factory=dict)
    #: class name -> {method name -> FunctionInfo}
    classes: dict = field(default_factory=dict)
    #: every FunctionInfo defined in this file (any nesting)
    all_functions: list = field(default_factory=list)


def _norm(path: str) -> str:
    return os.path.abspath(path).replace(os.sep, "/")


def _module_display_name(path: str) -> str:
    base = os.path.basename(path)
    return base[:-3] if base.endswith(".py") else base


def _collect_functions(module: ModuleInfo) -> None:
    """Index every function with its enclosing class (if any)."""

    def visit(node: ast.AST, cls: Optional[str], top_level: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(module.path, module.name, cls,
                                    child.name, child)
                module.all_functions.append(info)
                if cls is not None:
                    module.classes.setdefault(cls, {})
                    if child.name not in module.classes[cls]:
                        module.classes[cls][child.name] = info
                elif top_level and child.name not in module.functions:
                    module.functions[child.name] = info
                # Nested defs belong to no class namespace of their own.
                visit(child, None, False)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name, False)
            else:
                visit(child, cls, top_level)

    visit(module.tree, None, True)


class ProjectModel:
    """The resolved project: functions, call edges, yield summaries.

    Built once per ``check_paths`` run by :func:`build_project_model`;
    RACE001, the shared-state inventory and the taint plane are its
    clients.
    """

    def __init__(self, modules: list[ModuleInfo]):
        self.modules: dict[str, ModuleInfo] = {m.path: m
                                               for m in modules}
        self.functions: dict[tuple, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        #: id(YieldFrom node) -> does delegating through it preempt?
        self._yf_preempts: dict[int, bool] = {}
        for module in modules:
            for info in module.all_functions:
                self.functions[info.key] = info
                self.by_name.setdefault(info.name, []).append(info)
        self._resolve_calls()
        self._solve_may_yield()

    # -- lookups -----------------------------------------------------------
    def module_for(self, path: str) -> Optional[ModuleInfo]:
        return self.modules.get(_norm(path))

    def yieldfrom_preempts(self, node: ast.YieldFrom) -> bool:
        """Whether ``yield from <node.value>`` is a preemption point.
        Unknown nodes (not seen at build time) are conservatively
        preempting."""
        return self._yf_preempts.get(id(node), True)

    def summary(self) -> dict[str, bool]:
        """``qualname -> may_yield`` for every function (tests assert
        this exactly)."""
        return {info.qualname: info.may_yield
                for info in self.functions.values()}

    # -- call resolution ---------------------------------------------------
    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> Optional[list]:
        """FunctionInfos a call may dispatch to; ``None`` when the
        callee is entirely unresolvable (not even a name to go on)."""
        func = call.func
        module = self.modules.get(caller.path)
        if isinstance(func, ast.Name):
            if module is not None and func.id in module.functions:
                return [module.functions[func.id]]
            return self.by_name.get(func.id, [])
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and \
                    func.value.id == "self" and caller.cls is not None \
                    and module is not None:
                methods = module.classes.get(caller.cls, {})
                if func.attr in methods:
                    return [methods[func.attr]]
            return self.by_name.get(func.attr, [])
        return None

    def _resolve_calls(self) -> None:
        for info in self.functions.values():
            for node in own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                targets = self.resolve_call(node, info)
                for target in targets or ():
                    info.callees.add(target.key)

    # -- may-yield fixpoint ------------------------------------------------
    def _solve_may_yield(self) -> None:
        delegations: dict[tuple, list[tuple]] = {}
        worklist: list[tuple] = []
        for info in self.functions.values():
            direct = False
            edges: list[tuple] = []
            for node in own_nodes(info.node):
                if isinstance(node, ast.Yield):
                    direct = True
                elif isinstance(node, ast.YieldFrom):
                    targets = None
                    if isinstance(node.value, ast.Call):
                        targets = self.resolve_call(node.value, info)
                    if not targets:
                        # Computed delegatee or bare generator
                        # variable: assume it suspends.
                        direct = True
                        self._yf_preempts[id(node)] = True
                    else:
                        edges.extend(t.key for t in targets)
            delegations[info.key] = edges
            if direct:
                info.may_yield = True
                worklist.append(info.key)
        # Least fixpoint: propagate may-yield backwards over the
        # delegation edges only (a plain call to a generator builds an
        # object; only ``yield from`` suspends the caller).
        dependants: dict[tuple, list[tuple]] = {}
        for key, edges in delegations.items():
            for target in edges:
                dependants.setdefault(target, []).append(key)
        while worklist:
            key = worklist.pop()
            for dependant in dependants.get(key, ()):
                info = self.functions[dependant]
                if not info.may_yield:
                    info.may_yield = True
                    worklist.append(dependant)
        # Second pass: classify every resolvable yield-from site.
        for info in self.functions.values():
            for node in own_nodes(info.node):
                if not isinstance(node, ast.YieldFrom) or \
                        id(node) in self._yf_preempts:
                    continue
                targets = self.resolve_call(node.value, info) \
                    if isinstance(node.value, ast.Call) else None
                self._yf_preempts[id(node)] = bool(targets) and any(
                    self.functions[t.key].may_yield for t in targets)

    # -- reachability ------------------------------------------------------
    def reachable_from(self, root: FunctionInfo) -> set:
        """Keys of every function reachable from ``root`` over the
        (over-approximated) call edges, root included."""
        seen = {root.key}
        stack = [root.key]
        while stack:
            info = self.functions[stack.pop()]
            for callee in info.callees:
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def process_roots(self) -> list[tuple]:
        """``(FunctionInfo, multi_instance)`` for every generator
        registered at a ``*.process(gen(...))`` call site.

        ``multi_instance`` is True when the registration happens
        inside a loop — one site then spawns several concurrent
        processes of the same root (e.g. the driver's user loop) —
        or when the same root is registered at two distinct sites.
        """
        roots: dict[tuple, bool] = {}
        sites: dict[tuple, int] = {}
        for info in self.functions.values():
            loops = [node for node in own_nodes(info.node)
                     if isinstance(node, (ast.For, ast.While))]
            in_loop_ids: set[int] = set()
            for loop in loops:
                for sub in ast.walk(loop):
                    in_loop_ids.add(id(sub))
            for node in own_nodes(info.node):
                if not (isinstance(node, ast.Call) and
                        isinstance(node.func, ast.Attribute) and
                        node.func.attr == "process" and node.args):
                    continue
                generator = node.args[0]
                if not isinstance(generator, ast.Call):
                    continue
                targets = self.resolve_call(generator, info) or ()
                for target in targets:
                    multi = id(node) in in_loop_ids
                    roots[target.key] = roots.get(target.key,
                                                  False) or multi
                    sites[target.key] = sites.get(target.key, 0) + 1
        return [(self.functions[key],
                 multi or sites.get(key, 0) >= 2)
                for key, multi in sorted(roots.items())]


def build_project_model(paths: Iterable[str],
                        loader=None) -> ProjectModel:
    """Parse ``paths`` (files) and build the resolved project model.

    ``loader(path) -> (source, tree or None)`` lets the runner hand in
    the trees it already parsed (the rule pass must visit the *same*
    node objects the model indexed); the default reads and parses each
    file.  Files
    that do not parse are skipped here — the per-file lint pass still
    reports them as PARSE findings.
    """
    modules: list[ModuleInfo] = []
    for path in paths:
        if loader is not None:
            _source, tree = loader(path)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                tree = None
        if tree is None:
            continue
        module = ModuleInfo(_norm(path), _module_display_name(path),
                            tree)
        _collect_functions(module)
        modules.append(module)
    return ProjectModel(modules)

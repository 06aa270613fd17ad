"""What the taint engine needs to know about a call: where it can
dispatch inside the project, and whether it draws from a
nondeterministic source.

* :func:`resolve_targets` — the race call graph's name-based
  resolution behind a precision gate, so ``x.append(...)`` is not
  routed through every project method named ``append``;
* :func:`_is_nondet_call` — the source table of the ``random`` taint
  kind (OS entropy, the stdlib/numpy global RNGs, unseeded generator
  constructors) next to the wall-clock, environment and ``id()``
  sources the engine tags by their own kinds.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..race.callgraph import FunctionInfo, ProjectModel

__all__ = ["resolve_targets"]


# ------------------------------------------------- precise resolution
#: Method names shared with builtin container/string/file types.  The
#: race call graph's name-based fallback resolves ``x.append(...)`` to
#: *every* project method named ``append`` — sound for may-yield
#: (an extra callee errs safe) but ruinous for taint, where it would
#: route every list append through ``Binlog.append``'s artifact sink.
_GENERIC_METHODS = frozenset((
    "append", "add", "extend", "insert", "remove", "discard", "pop",
    "popitem", "clear", "update", "get", "setdefault", "keys",
    "values", "items", "copy", "sort", "reverse", "count", "index",
    "join", "split", "strip", "format", "read", "write", "close",
    "send", "put",
))


def _mentions_class(node: ast.AST, cls: str) -> bool:
    """Does the receiver chain name the class (``binlog.append`` for
    class ``Binlog``)?"""
    needle = cls.lower()
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and needle in node.attr.lower():
            return True
        node = node.value
    return isinstance(node, ast.Name) and needle in node.id.lower()


def resolve_targets(model: ProjectModel, call: ast.Call,
                    caller: Optional[FunctionInfo]) -> Optional[list]:
    """``model.resolve_call`` with a precision gate.

    Calls to a :data:`_GENERIC_METHODS` name only resolve to a class's
    method when the receiver gives evidence of the class: ``self``
    inside the class itself, or a receiver path that mentions the
    class name.  Everything else resolves exactly as the race call
    graph does.
    """
    if caller is None:
        return None
    func = call.func
    # A parameter shadows any same-named project function: calling a
    # callable argument (``def run_on_cpu(self, job): ... job()``)
    # must not dispatch to some module's ``def job``.
    if isinstance(func, ast.Name) and \
            func.id in _param_names(caller.node):
        return []
    targets = model.resolve_call(call, caller)
    if not targets or not isinstance(func, ast.Attribute) or \
            func.attr not in _GENERIC_METHODS:
        return targets
    kept = []
    for target in targets:
        if target.cls is None:
            continue
        if isinstance(func.value, ast.Name) and \
                func.value.id == "self" and caller.cls == target.cls:
            kept.append(target)
        elif _mentions_class(func.value, target.cls):
            kept.append(target)
    return kept


# -------------------------------------------- nondeterminism sources
#: OS entropy draws.  (Wall clocks, environment reads and ``id()``
#: are tagged by the engine under their own kinds before it asks.)
_ENTROPY_CALLS = frozenset(("os.urandom", "uuid.uuid1", "uuid.uuid4"))

_SEEDED_RNG_CONSTRUCTORS = frozenset((
    "random.Random", "numpy.random.default_rng",
))

#: numpy constructors that are fine as long as they are seeded — the
#: RandomStreams implementation itself uses these.
_SEEDED_NUMPY_RNG = frozenset((
    "numpy.random.Generator", "numpy.random.PCG64",
    "numpy.random.SeedSequence", "numpy.random.BitGenerator",
    "numpy.random.Philox", "numpy.random.SFC64",
))


def _is_nondet_call(resolved: str, call: ast.Call) -> bool:
    """Whether a call to ``resolved`` draws OS entropy or from an
    unseeded RNG — the ``random`` taint kind."""
    if resolved in _ENTROPY_CALLS:
        return True
    if resolved.startswith("secrets."):
        return True
    if resolved in _SEEDED_RNG_CONSTRUCTORS:
        # Seeded construction is the sanctioned path; the bare form
        # seeds from OS entropy.
        return not call.args and not call.keywords
    if resolved == "random.SystemRandom":
        return True
    if resolved.startswith("random."):
        # Module-level functions share the global, unseeded state.
        return resolved != "random.Random"
    if resolved.startswith("numpy.random."):
        return resolved not in _SEEDED_NUMPY_RNG
    return False


def _param_names(node: ast.AST) -> list:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names

"""Shared-state inventory: which attributes are raceable.

An attribute is *shared* when it can be touched by more than one
registered sim process and is mutated under at least one of them —
precisely the state a yield point can tear.  Seeding:

1. **Process roots** come from ``*.process(gen(...))`` call sites
   (:meth:`~.callgraph.ProjectModel.process_roots`); a site inside a
   loop counts as multiple concurrent instances of the same root.
2. **Reachability** tags every function the root can call (the same
   over-approximated call edges the yield summaries use).
3. **Accesses**: within tagged functions, ``self.a`` maps to the
   enclosing class precisely; ``obj.a`` (parameters, collaborators)
   maps to every class that *defines* ``a`` (assigns ``self.a``
   somewhere) — the name-based join matching the resolver's
   dynamic-dispatch fallback.

``(class, attr)`` is shared when its accessing roots have combined
multiplicity >= 2 (two distinct roots, or one multi-instance root)
and at least one tagged function writes it.  Everything else —
``__init__``-only fields, per-process scratch, constants — stays
private, which is what keeps RACE001's false-positive rate at a
usable level.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from ..visitor import own_nodes
from .callgraph import FunctionInfo, ProjectModel

__all__ = ["SharedStateInventory", "build_inventory"]

#: Method names that mutate the standard containers in place: a call
#: to one on a shared attribute counts as a write to it.
_COLLECTION_MUTATORS = frozenset((
    "append", "appendleft", "add", "discard", "remove", "pop",
    "popleft", "clear", "update", "extend", "insert", "put",
    "setdefault",
))


@dataclass
class _AttrRecord:
    roots: set = field(default_factory=set)
    multi_instance: bool = False
    written: bool = False


class SharedStateInventory:
    """Queryable result: is ``(class, attr)`` raceable shared state?"""

    def __init__(self):
        #: ``(class_name, attr) -> _AttrRecord``
        self._records: dict[tuple, _AttrRecord] = {}
        #: attr -> class names defining it (``self.attr = ...`` sites)
        self.defining_classes: dict[str, set] = {}

    # -- queries -----------------------------------------------------------
    def is_shared(self, attr: str, cls: Optional[str] = None) -> bool:
        """Shared as seen from an access site.

        ``cls`` is the enclosing class for ``self.attr`` accesses
        (precise lookup); ``None`` for accesses through an arbitrary
        receiver, which match any class sharing that attribute name.
        """
        if cls is not None:
            return self._shared(self._records.get((cls, attr)))
        return any(self._shared(record)
                   for (_cls, name), record in self._records.items()
                   if name == attr)

    def shared_pairs(self) -> set:
        """Every shared ``(class, attr)`` — tests assert this."""
        return {pair for pair, record in self._records.items()
                if self._shared(record)}

    def roots_of(self, cls: str, attr: str) -> set:
        record = self._records.get((cls, attr))
        return set(record.roots) if record is not None else set()

    @staticmethod
    def _shared(record: Optional[_AttrRecord]) -> bool:
        if record is None or not record.written:
            return False
        if len(record.roots) >= 2:
            return True
        return bool(record.roots) and record.multi_instance

    # -- construction ------------------------------------------------------
    def _record(self, cls: str, attr: str) -> _AttrRecord:
        return self._records.setdefault((cls, attr), _AttrRecord())

    def note_access(self, cls: Optional[str], attr: str, root_key,
                    multi: bool, is_write: bool) -> None:
        classes = [cls] if cls is not None else sorted(
            self.defining_classes.get(attr, ()))
        for owner in classes:
            record = self._record(owner, attr)
            record.roots.add(root_key)
            record.multi_instance = record.multi_instance or multi
            record.written = record.written or is_write


def _self_attr_writes(function: ast.AST):
    """``attr`` names stored on ``self`` anywhere in the function."""
    for node in own_nodes(function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id == "self":
                    yield target.attr


def _attribute_accesses(function: ast.AST):
    """``(attr, receiver_is_self, is_write)`` for every direct
    attribute access in the function body.  A collection-mutator call
    on an attribute (``self.items.discard(x)``) counts as a write —
    set/list-typed shared state is mutated exactly that way."""
    for node in own_nodes(function):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _COLLECTION_MUTATORS and \
                isinstance(node.func.value, ast.Attribute):
            inner = node.func.value
            on_self = isinstance(inner.value, ast.Name) and \
                inner.value.id == "self"
            yield inner.attr, on_self, True
        if not isinstance(node, ast.Attribute):
            continue
        on_self = isinstance(node.value, ast.Name) and \
            node.value.id == "self"
        is_write = isinstance(node.ctx, (ast.Store, ast.Del))
        yield node.attr, on_self, is_write


def build_inventory(model: ProjectModel) -> SharedStateInventory:
    inventory = SharedStateInventory()
    # 1. Which classes define which attributes (any method counts —
    #    __init__ establishes the field even if processes mutate it).
    for info in model.functions.values():
        if info.cls is None:
            continue
        for attr in _self_attr_writes(info.node):
            inventory.defining_classes.setdefault(attr,
                                                  set()).add(info.cls)
    # 2. Tag functions with the roots that reach them, then record
    #    every attribute access made under a process.
    for root, multi in model.process_roots():
        for key in model.reachable_from(root):
            info: FunctionInfo = model.functions[key]
            for attr, on_self, is_write in \
                    _attribute_accesses(info.node):
                cls = info.cls if on_self else None
                if on_self and cls is None:
                    continue  # 'self' outside a class: skip
                inventory.note_access(cls, attr, root.key, multi,
                                      is_write)
    return inventory

"""Control-flow graphs over Python ``ast`` function bodies.

One :class:`ControlFlowGraph` per function: a node per statement plus
synthetic ``<entry>``/``<exit>`` nodes and synthetic *cleanup* nodes
for exception dispatch (``except@L``), ``finally`` blocks
(``finally@L``), ``with`` unwinding (``with-exit@L``) and loop exits
reached by a ``break`` that unwinds through a cleanup
(``loop-exit@L``).  Edges are labeled ``normal`` or ``exception``.

What is modeled, and how precisely:

* **Branches and loops** — ``if``/``while``/``for`` headers are nodes
  with an out-edge per branch; loop bodies get a back edge to the
  header, ``break`` jumps past the ``else`` clause, ``continue`` jumps
  to the header, and a loop ``else`` runs only on normal exhaustion.
* **Exceptions** — a statement *may raise* when it contains a call, a
  ``yield``/``yield from`` (the kernel can throw into a waiting
  process, e.g. :meth:`repro.sim.kernel.Process.interrupt`), an
  ``await``, an ``assert``, or is a ``raise``.  Such statements get an
  ``exception`` edge to every handler of the innermost enclosing
  ``try`` and, for the unmatched case, onward to the nearest
  ``finally``/``with`` cleanup node or ``<exit>`` (the walk stops at a
  catch-all ``except:``/``except Exception:`` handler).  Plain
  attribute access, arithmetic and subscripts are assumed not to
  raise — the pragmatic policy resource-pairing linters adopt to avoid
  drowning in edges.
* **``finally`` / ``with`` unwinding** — the cleanup body is built
  once (not duplicated per continuation); its exits fan out to every
  continuation that routed through it: fall-through, exception
  re-raise, and any ``return``/``break``/``continue`` that unwound
  through it.  This over-approximates feasible paths (a path entering
  the cleanup via ``return`` can statically leave via the exception
  edge), which is the safe direction for may-leak analyses.
* **Nested functions** — a nested ``def``/``class``/``lambda`` is a
  single opaque statement node; its body belongs to its own CFG.

Node labels are deterministic (``NodeType@line``, disambiguated with a
``.n`` suffix on collision), so tests can assert exact node and edge
sets.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

__all__ = ["CFGNode", "ControlFlowGraph", "build_cfg", "may_raise",
           "node_expressions"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Constructs that terminate descent when deciding whether a statement
#: may raise (their bodies run elsewhere).
_OPAQUE = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

#: Exception names treated as catching everything for propagation.
_CATCH_ALL = frozenset(("BaseException", "Exception"))


class CFGNode:
    """One vertex: a statement, or a synthetic entry/exit/cleanup node."""

    __slots__ = ("index", "label", "kind", "stmt")

    def __init__(self, index: int, label: str, kind: str,
                 stmt: Optional[ast.AST] = None):
        self.index = index
        self.label = label
        self.kind = kind        # "entry" | "exit" | "stmt" | "cleanup"
        self.stmt = stmt

    def __repr__(self) -> str:
        return f"<CFGNode {self.label}>"


class ControlFlowGraph:
    """Nodes plus labeled directed edges, with entry/exit distinguished."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: list[CFGNode] = []
        self._succs: dict[int, list[tuple[int, str]]] = {}
        self._labels: set[str] = set()
        self.entry = self.add_node("<entry>", "entry")
        self.exit = self.add_node("<exit>", "exit")

    # -- construction ------------------------------------------------------
    def add_node(self, label: str, kind: str,
                 stmt: Optional[ast.AST] = None) -> CFGNode:
        if label in self._labels:
            suffix = 2
            while f"{label}.{suffix}" in self._labels:
                suffix += 1
            label = f"{label}.{suffix}"
        self._labels.add(label)
        node = CFGNode(len(self.nodes), label, kind, stmt)
        self.nodes.append(node)
        self._succs[node.index] = []
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode,
                 kind: str = "normal") -> None:
        pair = (dst.index, kind)
        if pair not in self._succs[src.index]:
            self._succs[src.index].append(pair)

    # -- queries -----------------------------------------------------------
    def successors(self, node: CFGNode) -> Iterator[tuple[CFGNode, str]]:
        for index, kind in self._succs[node.index]:
            yield self.nodes[index], kind

    def edge_set(self) -> frozenset[tuple[str, str, str]]:
        """``{(src_label, dst_label, edge_kind)}`` — for exact tests."""
        return frozenset(
            (self.nodes[src].label, self.nodes[dst].label, kind)
            for src, pairs in self._succs.items()
            for dst, kind in pairs)

    def node_labels(self) -> frozenset[str]:
        return frozenset(node.label for node in self.nodes)

    def reachable(self) -> set[int]:
        """Indices of nodes reachable from ``<entry>``."""
        seen = {self.entry.index}
        stack = [self.entry.index]
        while stack:
            for index, _kind in self._succs[stack.pop()]:
                if index not in seen:
                    seen.add(index)
                    stack.append(index)
        return seen


def may_raise(node: ast.AST) -> bool:
    """Whether a statement gets an exception edge (see module policy)."""
    if isinstance(node, (ast.Raise, ast.Assert)):
        return True
    todo: list[ast.AST] = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, (ast.Call, ast.Yield, ast.YieldFrom,
                            ast.Await)):
            return True
        if isinstance(sub, _OPAQUE):
            continue
        todo.extend(ast.iter_child_nodes(sub))
    return False


def node_expressions(node: CFGNode) -> list[ast.AST]:
    """The AST fragments actually evaluated *at* this node.

    Compound statements (``if``/``while``/``for``/``with``) carry their
    whole subtree in ``node.stmt``, but only the header is evaluated at
    the node itself — body statements are separate nodes.  Dataflow
    rules must scan these fragments, never ``node.stmt`` wholesale.
    """
    stmt = node.stmt
    if stmt is None:
        return []
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return list(stmt.items)
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    return [stmt]


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return any(isinstance(name, ast.Name) and name.id in _CATCH_ALL
               for name in names)


class _Frame:
    """One level of the builder's unwinding context.

    ``cleanup`` is the synthetic node a path must pass through when it
    leaves this frame (a ``finally@L`` or ``with-exit@L`` node), or
    None when the frame has none (plain ``try/except``, loops).
    ``continuations`` collects where paths that routed through the
    cleanup continue once its body has run.
    """

    __slots__ = ("kind", "cleanup", "handlers", "catches_all",
                 "continuations", "header", "breaks", "break_join")

    def __init__(self, kind: str, cleanup: Optional[CFGNode] = None,
                 handlers: tuple[CFGNode, ...] = (),
                 catches_all: bool = False,
                 header: Optional[CFGNode] = None):
        self.kind = kind              # "loop" | "try" | "with"
        self.cleanup = cleanup
        self.handlers = handlers
        self.catches_all = catches_all
        self.continuations: list[CFGNode] = []
        self.header = header               # loop frames only
        self.breaks: list[CFGNode] = []    # loop frames: dangling exits
        self.break_join: Optional[CFGNode] = None

    def add_continuation(self, node: CFGNode) -> None:
        if all(existing is not node for existing in self.continuations):
            self.continuations.append(node)


class _Builder:
    def __init__(self, function: FunctionNode):
        self.cfg = ControlFlowGraph(function.name)
        self.frames: list[_Frame] = []

    # -- unwinding ---------------------------------------------------------
    def _exception_targets(self) -> list[CFGNode]:
        """Where an exception raised *here* may go directly.

        Innermost handlers first; the walk stops at the first cleanup
        node (whose own out-edges model further propagation) or at a
        catch-all handler, and otherwise reaches ``<exit>``.
        """
        targets: list[CFGNode] = []
        for frame in reversed(self.frames):
            targets.extend(frame.handlers)
            if frame.cleanup is not None:
                targets.append(frame.cleanup)
                return targets
            if frame.catches_all:
                return targets
        targets.append(self.cfg.exit)
        return targets

    def _route_unwind(self, src: CFGNode, dest: CFGNode,
                      stop: Optional[_Frame]) -> None:
        """Edge from ``src`` to ``dest``, chaining through every cleanup
        node between the current frame and ``stop`` (exclusive)."""
        chain: list[_Frame] = []
        for frame in reversed(self.frames):
            if frame is stop:
                break
            if frame.cleanup is not None:
                chain.append(frame)
        if not chain:
            self.cfg.add_edge(src, dest)
            return
        self.cfg.add_edge(src, chain[0].cleanup)
        for frame, outer in zip(chain, chain[1:]):
            frame.add_continuation(outer.cleanup)
        chain[-1].add_continuation(dest)

    def _frames_until(self, stop: _Frame) -> list[_Frame]:
        collected: list[_Frame] = []
        for frame in reversed(self.frames):
            if frame is stop:
                break
            collected.append(frame)
        return collected

    # -- statement building ------------------------------------------------
    def _add_raise_edges(self, node: CFGNode) -> None:
        for target in self._exception_targets():
            self.cfg.add_edge(node, target, "exception")

    def _stmt_node(self, stmt: ast.stmt) -> CFGNode:
        node = self.cfg.add_node(
            f"{type(stmt).__name__}@{stmt.lineno}", "stmt", stmt)
        if may_raise(stmt):
            self._add_raise_edges(node)
        return node

    def _connect(self, preds: list[CFGNode], node: CFGNode) -> None:
        for pred in preds:
            self.cfg.add_edge(pred, node)

    def build_body(self, stmts: list[ast.stmt],
                   preds: list[CFGNode]) -> list[CFGNode]:
        """Build a statement sequence; returns the nodes whose normal
        out-edge falls through to whatever follows the sequence.
        Statements after the block terminated (empty ``preds``) are
        still built, as unreachable nodes."""
        for stmt in stmts:
            preds = self._build_stmt(stmt, preds)
        return preds

    def _build_stmt(self, stmt: ast.stmt,
                    preds: list[CFGNode]) -> list[CFGNode]:
        if isinstance(stmt, ast.If):
            return self._build_if(stmt, preds)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._build_with(stmt, preds)
        node = self._stmt_node(stmt)
        self._connect(preds, node)
        if isinstance(stmt, ast.Return):
            self._route_unwind(node, self.cfg.exit, stop=None)
            return []
        if isinstance(stmt, ast.Raise):
            return []
        if isinstance(stmt, ast.Break):
            self._build_break(node)
            return []
        if isinstance(stmt, ast.Continue):
            loop = self._innermost_loop()
            if loop is not None and loop.header is not None:
                self._route_unwind(node, loop.header, stop=loop)
            return []
        return [node]

    def _innermost_loop(self) -> Optional[_Frame]:
        for frame in reversed(self.frames):
            if frame.kind == "loop":
                return frame
        return None

    def _build_break(self, node: CFGNode) -> None:
        loop = self._innermost_loop()
        if loop is None:
            return
        if not any(frame.cleanup is not None
                   for frame in self._frames_until(loop)):
            # No finally/with between the break and its loop: the break
            # node itself dangles to whatever follows the loop.
            loop.breaks.append(node)
            return
        # The break unwinds through cleanups; the after-loop point does
        # not exist yet, so route to a per-loop join node that will
        # dangle to it.
        if loop.break_join is None:
            line = loop.header.stmt.lineno if loop.header is not None \
                and loop.header.stmt is not None else 0
            loop.break_join = self.cfg.add_node(
                f"loop-exit@{line}", "cleanup")
            loop.breaks.append(loop.break_join)
        self._route_unwind(node, loop.break_join, stop=loop)

    def _build_if(self, stmt: ast.If,
                  preds: list[CFGNode]) -> list[CFGNode]:
        header = self.cfg.add_node(f"If@{stmt.lineno}", "stmt", stmt)
        if may_raise(stmt.test):
            self._add_raise_edges(header)
        self._connect(preds, header)
        body_exits = self.build_body(stmt.body, [header])
        if stmt.orelse:
            else_exits = self.build_body(stmt.orelse, [header])
            return body_exits + else_exits
        return body_exits + [header]

    def _build_loop(self, stmt, preds: list[CFGNode]) -> list[CFGNode]:
        name = type(stmt).__name__
        header = self.cfg.add_node(f"{name}@{stmt.lineno}", "stmt", stmt)
        header_exprs = [stmt.test] if isinstance(stmt, ast.While) \
            else [stmt.iter]
        if any(may_raise(expr) for expr in header_exprs):
            self._add_raise_edges(header)
        self._connect(preds, header)
        frame = _Frame("loop", header=header)
        self.frames.append(frame)
        body_exits = self.build_body(stmt.body, [header])
        self.frames.pop()
        for node in body_exits:
            self.cfg.add_edge(node, header)   # back edge
        # Normal exhaustion runs the else clause; break skips it.
        if stmt.orelse:
            exits = self.build_body(stmt.orelse, [header])
        else:
            exits = [header]
        return exits + frame.breaks

    def _build_try(self, stmt: ast.Try,
                   preds: list[CFGNode]) -> list[CFGNode]:
        handler_nodes = tuple(
            self.cfg.add_node(f"except@{handler.lineno}", "cleanup",
                              handler)
            for handler in stmt.handlers)
        final_node = None
        if stmt.finalbody:
            final_node = self.cfg.add_node(
                f"finally@{stmt.finalbody[0].lineno}", "cleanup")
        frame = _Frame("try", cleanup=final_node, handlers=handler_nodes,
                       catches_all=any(_is_catch_all(handler)
                                       for handler in stmt.handlers))
        self.frames.append(frame)
        body_exits = self.build_body(stmt.body, preds)
        self.frames.pop()

        # The else clause and the handler bodies run outside the
        # protection of this try's handlers but inside its finally.
        shield = _Frame("try", cleanup=final_node)
        self.frames.append(shield)
        if stmt.orelse:
            body_exits = self.build_body(stmt.orelse, body_exits)
        handler_exits: list[CFGNode] = []
        for dispatch, handler in zip(handler_nodes, stmt.handlers):
            handler_exits.extend(
                self.build_body(handler.body, [dispatch]))
        self.frames.pop()
        # Unwinds recorded while building else/handlers belong to the
        # real frame's cleanup.
        for node in shield.continuations:
            frame.add_continuation(node)

        exits = body_exits + handler_exits
        if final_node is None:
            return exits
        for node in exits:
            self.cfg.add_edge(node, final_node)
        final_exits = self.build_body(stmt.finalbody, [final_node])
        # Paths that entered the finally exceptionally re-raise after
        # it; paths that entered via return/break/continue resume their
        # recorded journey; normal entries fall through (the returned
        # dangling exits).
        for target in self._exception_targets():
            for node in final_exits:
                self.cfg.add_edge(node, target, "exception")
        for dest in frame.continuations:
            for node in final_exits:
                self.cfg.add_edge(node, dest)
        return list(final_exits)

    def _build_with(self, stmt, preds: list[CFGNode]) -> list[CFGNode]:
        name = type(stmt).__name__
        header = self.cfg.add_node(f"{name}@{stmt.lineno}", "stmt", stmt)
        if any(may_raise(item.context_expr) for item in stmt.items):
            self._add_raise_edges(header)
        self._connect(preds, header)
        cleanup = self.cfg.add_node(f"with-exit@{stmt.lineno}", "cleanup")
        frame = _Frame("with", cleanup=cleanup)
        self.frames.append(frame)
        body_exits = self.build_body(stmt.body, [header])
        self.frames.pop()
        for node in body_exits:
            self.cfg.add_edge(node, cleanup)
        # __exit__ may re-raise (exception continuation) or the body
        # completed normally / the exception was suppressed (normal
        # fall-through via the returned dangling exit).
        for target in self._exception_targets():
            self.cfg.add_edge(cleanup, target, "exception")
        for dest in frame.continuations:
            self.cfg.add_edge(cleanup, dest)
        return [cleanup]

    def build(self, function: FunctionNode) -> ControlFlowGraph:
        exits = self.build_body(function.body, [self.cfg.entry])
        for node in exits:
            self.cfg.add_edge(node, self.cfg.exit)
        return self.cfg


def build_cfg(function: FunctionNode) -> ControlFlowGraph:
    """The control-flow graph of one function definition."""
    return _Builder(function).build(function)

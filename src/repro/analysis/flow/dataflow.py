"""Generic forward dataflow over a :class:`ControlFlowGraph`.

The solver implements the classic *may* (union) gen/kill analysis on
the powerset lattice of facts, iterated to fixpoint with a worklist.
Rules supply only the transfer ingredients:

* :meth:`DataflowProblem.gen` — facts a node creates;
* :meth:`DataflowProblem.kill` — facts a node destroys.

Two refinements matter for resource-pairing proofs:

* **Edge-sensitive gen.**  A fact born at a statement (``conn =
  yield from pool.acquire()``) exists only if the statement *completed*
  — it must not flow along the statement's own ``exception`` edge
  (the assignment never happened).  Kills apply on both edge kinds:
  once ``release(x)`` has been reached, the claim is treated as
  settled even if the release itself were to raise.
* **Set-union convergence.**  Facts are frozen hashable values; IN
  sets only grow, so the worklist terminates in
  O(edges × facts) joins regardless of visit order, and the fixpoint
  is order-independent (the transfer is monotone and distributive).

A third, optional ingredient serves flow-*rewriting* analyses
(RACE001 in :mod:`..race.rules`): :meth:`DataflowProblem.transform`
maps the surviving facts at a node to new facts — e.g. marking every
fact that flows through a yield point as "crossed a preemption".  The
transform applies on *both* edge kinds: an interrupt is thrown into a
process at its yield, so a fact leaving a yield node along the
exception edge crossed the preemption just the same.  For convergence
the transform must be monotone and idempotent on the fact set (flag
flips are; arbitrary rewrites are not).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Optional

from .cfg import CFGNode, ControlFlowGraph

__all__ = ["DataflowProblem", "DataflowResult", "solve_forward"]

Fact = Hashable


class DataflowProblem:
    """Gen/kill definitions for one analysis.

    Subclasses override :meth:`gen` and :meth:`kill`; both receive the
    CFG node, and :meth:`kill` additionally receives the incoming fact
    set so it can select which live facts die (e.g. every fact whose
    variable is passed to ``release``)."""

    def gen(self, node: CFGNode) -> frozenset:
        return frozenset()

    def kill(self, node: CFGNode, facts: frozenset) -> frozenset:
        return frozenset()

    def transform(self, node: CFGNode, facts: frozenset) -> frozenset:
        """Rewrite the facts surviving ``node`` (identity by default).

        Runs after :meth:`kill` and before :meth:`gen`, on both the
        normal and the exception out-edges.  Must be monotone and
        idempotent (e.g. setting a flag on each fact)."""
        return facts

    def initial(self) -> frozenset:
        """Facts live at function entry (usually none)."""
        return frozenset()


class DataflowResult:
    """Fixpoint fact sets, queryable per node."""

    def __init__(self, cfg: ControlFlowGraph,
                 entering: dict[int, frozenset],
                 problem: DataflowProblem):
        self.cfg = cfg
        self._entering = entering
        self._problem = problem

    def entering(self, node: CFGNode) -> frozenset:
        """Facts live on entry to ``node``."""
        return self._entering.get(node.index, frozenset())

    def leaving(self, node: CFGNode, edge_kind: str = "normal"
                ) -> frozenset:
        """Facts live on an out-edge of ``node`` of the given kind."""
        survivors = self.entering(node) - self._problem.kill(
            node, self.entering(node))
        survivors = self._problem.transform(node, survivors)
        if edge_kind == "exception":
            return survivors
        return survivors | self._problem.gen(node)

    @property
    def at_exit(self) -> frozenset:
        """Facts reaching ``<exit>`` on at least one path."""
        return self.entering(self.cfg.exit)


def solve_forward(cfg: ControlFlowGraph,
                  problem: DataflowProblem,
                  max_iterations: Optional[int] = None) -> DataflowResult:
    """Iterate the gen/kill transfer to fixpoint over ``cfg``.

    ``max_iterations`` bounds worklist pops as a safety valve; the
    default is proportional to nodes × edges, far beyond what a
    monotone union analysis can need.
    """
    entering: dict[int, frozenset] = {
        cfg.entry.index: frozenset(problem.initial())}
    n_edges = sum(1 for node in cfg.nodes
                  for _succ in cfg.successors(node))
    budget = max_iterations if max_iterations is not None \
        else max(64, 4 * len(cfg.nodes) * max(1, n_edges))
    # Every node is processed at least once (a node's *gen* can create
    # the first facts even when nothing flows in yet); after that a
    # node re-queues only when its IN set grows.
    worklist: deque[int] = deque(node.index for node in cfg.nodes)
    queued = {node.index for node in cfg.nodes}
    while worklist:
        budget -= 1
        if budget < 0:
            raise RuntimeError(
                f"dataflow did not converge on {cfg.name!r} — "
                f"non-monotone gen/kill?")
        index = worklist.popleft()
        queued.discard(index)
        node = cfg.nodes[index]
        facts_in = entering.get(index, frozenset())
        survivors = facts_in - problem.kill(node, facts_in)
        survivors = problem.transform(node, survivors)
        out_normal = survivors | problem.gen(node)
        for succ, kind in cfg.successors(node):
            flowing = survivors if kind == "exception" else out_normal
            known = entering.get(succ.index, frozenset())
            if not flowing <= known:
                entering[succ.index] = known | flowing
                if succ.index not in queued:
                    queued.add(succ.index)
                    worklist.append(succ.index)
    return DataflowResult(cfg, entering, problem)

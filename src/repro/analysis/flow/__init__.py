"""Flow-sensitive analysis: CFG → dataflow solver → FLW rules.

Architecture — three layers, each usable without the ones above it:

1. :mod:`.cfg` (**control-flow graphs**).  :func:`~.cfg.build_cfg`
   turns one function definition into a graph of statement nodes with
   ``normal``/``exception`` edges.  It models the constructs that
   matter for lifecycle proofs in a discrete-event codebase:
   ``try/except/else/finally`` (handlers as dispatch nodes, the
   ``finally`` body built once with fan-out to every continuation),
   ``with`` unwinding, loops with ``break``/``continue``/``else``,
   early returns routed through enclosing cleanups, and — crucially —
   exception edges out of ``yield``/``yield from``, because the kernel
   can throw into a waiting process (``Process.interrupt``), so a
   resource claimed before a ``yield`` leaks unless the wait sits
   inside ``try/finally``.

2. :mod:`.dataflow` (**fixpoint solver**).  :func:`~.dataflow
   .solve_forward` runs any gen/kill :class:`~.dataflow
   .DataflowProblem` to fixpoint with a worklist — a forward *may*
   analysis on the powerset-of-facts lattice.  Gen applies only to
   normal out-edges (a fact born at a statement does not exist on the
   statement's own exception edge); kills apply to both.  The solver
   knows nothing about any rule.

3. :mod:`.rules` (**the FLW family**).  Each rule is just a gen/kill
   definition plus a report: FLW001 (``pool.acquire()`` released on
   every path) and FLW002 (``Resource.request()`` paired with
   ``release``) share one :class:`~.rules._PairingProblem` and differ
   only in their acquire-site matcher.

Further rule families plug in at layer 3 (RACE001 and the TNT rules
do): define facts, gen, kill — the CFG and solver are already paid
for.
"""

from .cfg import ControlFlowGraph, build_cfg
from .dataflow import DataflowProblem, DataflowResult, solve_forward
from .rules import RULES

__all__ = [
    "ControlFlowGraph",
    "build_cfg",
    "DataflowProblem",
    "DataflowResult",
    "solve_forward",
    "RULES",
]

"""simtaint: interprocedural determinism-taint analysis.

Three layers:

* :mod:`.purity` — what the engine asks about a call: precise
  resolution into the project (:func:`~.purity.resolve_targets`) and
  the nondeterminism source table.
* :mod:`.engine` — the taint lattice: five nondeterminism kinds, tag
  propagation through expressions and the CFG dataflow solver, and
  flow-insensitive per-function taint summaries (return taint,
  parameter passthrough, parameter→sink flows).
* :mod:`.rules` — the five TNT rules with ``# simtaint:
  blessed=REASON`` pragma support and taint-path related locations.
"""

from .engine import (FunctionTaint, Tag, TaintProblem, TaintSummaries,
                     expr_taint)
from .rules import TAINT_RULES, taint_rules

__all__ = ["FunctionTaint", "Tag", "TaintProblem", "TaintSummaries",
           "expr_taint", "TAINT_RULES", "taint_rules"]

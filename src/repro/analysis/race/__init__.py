"""simrace: interprocedural yield-point atomicity analysis plus the
sim-time race sanitizer.

Two prongs against the same bug class — a cooperative sim process
reads shared state, yields (every ``yield`` is a preemption point, and
``Process.interrupt`` can throw *into* one), then acts on the stale
read:

* **Static** (:mod:`.callgraph`, :mod:`.shared`, :mod:`.rules`): a
  project-wide call graph with interprocedural may-yield summaries, a
  shared-state inventory seeded from ``sim.process(...)`` call sites,
  and RACE001 riding the flow plane's CFG/dataflow solver.  Surfaced
  as the ``simrace`` section of ``python -m repro check``.
* **Dynamic** (:mod:`.sanitizer`): an opt-in
  :class:`~.sanitizer.RaceSanitizer` hooked into the kernel that
  instruments chosen shared objects and reports stale write-backs at
  sim time.  Surfaced via ``--sanitize`` on ``repro chaos`` and
  ``repro trace``.
"""

from .callgraph import FunctionInfo, ProjectModel, build_project_model
from .rules import RACE_RULES, race_rules
from .sanitizer import RaceReport, RaceSanitizer, instrument_cluster
from .shared import SharedStateInventory, build_inventory

__all__ = ["FunctionInfo", "ProjectModel", "build_project_model",
           "RACE_RULES", "race_rules", "RaceReport", "RaceSanitizer",
           "SharedStateInventory", "build_inventory",
           "instrument_cluster"]

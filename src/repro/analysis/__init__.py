"""simlint — static analysis for the reproduction's own invariants.

The reproduction's results are only trustworthy if these properties
hold everywhere in ``src/repro/``:

* **Determinism** (DET rules): nothing reads wall-clock time, imports
  the stdlib ``random`` module or iterates a set in hash order; every
  stochastic draw flows through :class:`repro.sim.rng.RandomStreams`.
* **SQL validity** (SQL rules): every SQL string literal parses with
  the in-repo :mod:`repro.sql` parser and references tables and
  columns that actually exist in the Cloudstone schema.
* **Lifecycle pairing** (FLW rules): flow-sensitive proofs over a
  per-function CFG (:mod:`repro.analysis.flow`) that pool
  connections and resource claims are released on *every* path,
  exception edges included.
* **Yield-point atomicity** (RACE001, :mod:`repro.analysis.race`):
  an interprocedural proof that no process writes back shared state
  it read before a preemption point.
* **Determinism taint** (TNT rules, :mod:`repro.analysis.taint`):
  interprocedural source→sink proofs that no nondeterministic value
  (wall clock, entropy, environment, ``id()``, set iteration order)
  reaches event scheduling, telemetry, or artifacts.

Nothing in the runtime enforces these invariants, so refactors could
silently break reproducibility.  One gate makes them checkable:
``python -m repro check`` — :func:`check_paths`, every rule in one
pass over one project model — which the ``repo_check`` fixture in
``tests/analysis/conftest.py`` runs over the repo.
:func:`lint_source` is the single-source API the per-rule fixture
tests use.  A rule earns its place by having fired on a committed
tree outside its own fixtures; retired ids are never reused.
"""

from .config import DEFAULT_CONFIG, LintConfig, load_config
from .findings import Finding
from .runner import (LintStats, check_paths, format_findings_text,
                     lint_source)
from .sarif import format_merged_sarif
from .visitor import LintContext, Rule, all_rules

__all__ = [
    "Finding",
    "LintConfig",
    "DEFAULT_CONFIG",
    "load_config",
    "Rule",
    "LintContext",
    "LintStats",
    "all_rules",
    "lint_source",
    "check_paths",
    "format_findings_text",
    "format_merged_sarif",
]

"""Deterministic fault injection for the replication simulation.

The paper's operational hazards — master failure with an asynchronous
data-loss window (§II), partitions suspending synchronization,
instance-performance variation (§IV-A) — become *schedulable events*:
a :class:`FaultSchedule` drives a :class:`ChaosInjector` against a
live cluster, and :func:`run_drill` wraps the whole thing in a
measured recovery drill (``python -m repro drill``) whose halves,
:func:`start_drill` and :func:`finish_drill`, let a caller step it.
"""

from .drill import (DrillConfig, DrillResult, FailoverController,
                    ReplicaHealthPolicy, default_schedule, finish_drill,
                    render_report_text, run_drill, start_drill)
from .faults import FAULT_KINDS, Fault, FaultSchedule
from .injector import ChaosInjector

__all__ = [
    "Fault",
    "FaultSchedule",
    "FAULT_KINDS",
    "ChaosInjector",
    "DrillConfig",
    "DrillResult",
    "FailoverController",
    "ReplicaHealthPolicy",
    "default_schedule",
    "run_drill",
    "start_drill",
    "finish_drill",
    "render_report_text",
]

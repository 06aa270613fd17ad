"""The customized Cloudstone benchmark (web tier removed)."""

from .driver import LoadGenerator, PAPER_PHASES, Phases
from .loader import load_initial_data
from .mix import MIX_50_50, MIX_80_20, OperationMix
from .operations import (Operation, READ_OPERATIONS, WRITE_OPERATIONS,
                         operation_by_name)
from .schema import CLOUDSTONE_DATABASE, SCHEMA_STATEMENTS, TAG_COUNT
from .state import WorkloadState

__all__ = [
    "LoadGenerator",
    "Phases",
    "PAPER_PHASES",
    "load_initial_data",
    "OperationMix",
    "MIX_50_50",
    "MIX_80_20",
    "Operation",
    "READ_OPERATIONS",
    "WRITE_OPERATIONS",
    "operation_by_name",
    "WorkloadState",
    "CLOUDSTONE_DATABASE",
    "SCHEMA_STATEMENTS",
    "TAG_COUNT",
]

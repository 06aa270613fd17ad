"""In-memory relational storage engine (the MySQL stand-in)."""

from .binlog import Binlog, BinlogEvent
from .engine import (ExecutionProfile, ExecutionResult, ResultSet,
                     StorageEngine)
from .errors import (ConstraintError, DatabaseError, DuplicateKeyError,
                     ExpressionError, SchemaError, TableNotFoundError,
                     TransactionError)
from .functions import standard_functions
from .index import Index
from .rowevents import RowOp, apply_row_ops, row_ops_size_bytes
from .schema import Column, TableSchema, schema_from_ast
from .table import Table
from .types import SqlType, resolve_type

__all__ = [
    "StorageEngine",
    "ResultSet",
    "ExecutionProfile",
    "ExecutionResult",
    "Binlog",
    "BinlogEvent",
    "Table",
    "Index",
    "RowOp",
    "apply_row_ops",
    "row_ops_size_bytes",
    "Column",
    "TableSchema",
    "schema_from_ast",
    "SqlType",
    "resolve_type",
    "standard_functions",
    "DatabaseError",
    "SchemaError",
    "TableNotFoundError",
    "DuplicateKeyError",
    "ConstraintError",
    "ExpressionError",
    "TransactionError",
]

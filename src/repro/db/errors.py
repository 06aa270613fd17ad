"""Database error hierarchy."""

from __future__ import annotations

from ..sql.expressions import EvaluationError

__all__ = ["DatabaseError", "SchemaError", "TableNotFoundError",
           "DuplicateKeyError", "ConstraintError", "TransactionError",
           "ExpressionError"]


class DatabaseError(Exception):
    """Base class for all storage-engine errors."""


class SchemaError(DatabaseError):
    """Invalid schema definition or DDL misuse."""


class TableNotFoundError(DatabaseError):
    """Referenced table does not exist."""


class DuplicateKeyError(DatabaseError):
    """Primary-key or unique-index violation."""


class ConstraintError(DatabaseError):
    """NOT NULL or type constraint violation."""


class TransactionError(DatabaseError):
    """Invalid transaction-control sequence."""


class ExpressionError(DatabaseError, EvaluationError):
    """A statement's expression could not be evaluated (unknown column,
    unbound parameter, operands of types that do not compare)."""

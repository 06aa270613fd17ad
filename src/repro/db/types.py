"""SQL value types and coercion rules.

Timestamps are stored as ``float`` seconds since the simulation epoch.
The distinction the paper cares about — MySQL's built-in second
resolution vs. the microsecond-resolution UDF of bug #8523 — lives in
the function registry (``NOW()`` truncates, ``USEC_NOW()`` does not),
not in the storage type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .errors import ConstraintError, SchemaError

__all__ = ["SqlType", "resolve_type"]


@dataclass(frozen=True)
class SqlType:
    """A storage type with validation/coercion."""

    name: str
    python_type: type
    max_length: Optional[int] = None

    def coerce(self, value: Any, column: str) -> Any:
        """Coerce ``value`` for storage; raise ConstraintError if invalid."""
        if value is None:
            return None
        if type(value) is self.python_type and self.max_length is None:
            return value  # what every branch below returns for it
        if self.python_type is int:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            raise ConstraintError(
                f"column {column!r} expects an integer, got {value!r}")
        if self.python_type is float:
            if isinstance(value, bool):
                raise ConstraintError(
                    f"column {column!r} expects a number, got {value!r}")
            if isinstance(value, (int, float)):
                return float(value)
            raise ConstraintError(
                f"column {column!r} expects a number, got {value!r}")
        if self.python_type is str:
            if not isinstance(value, str):
                value = str(value)
            if self.max_length is not None and len(value) > self.max_length:
                raise ConstraintError(
                    f"value too long for column {column!r} "
                    f"({len(value)} > {self.max_length})")
            return value
        if self.python_type is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, int):
                return bool(value)
            raise ConstraintError(
                f"column {column!r} expects a boolean, got {value!r}")
        raise SchemaError(f"unhandled storage type {self.name!r}")


_TYPES = {
    "INTEGER": SqlType("INTEGER", int),
    "INT": SqlType("INTEGER", int),
    "BIGINT": SqlType("BIGINT", int),
    "FLOAT": SqlType("FLOAT", float),
    "DOUBLE": SqlType("DOUBLE", float),
    "TEXT": SqlType("TEXT", str),
    "TIMESTAMP": SqlType("TIMESTAMP", float),
    "DATETIME": SqlType("DATETIME", float),
    "BOOLEAN": SqlType("BOOLEAN", bool),
}


def resolve_type(type_name: str, type_arg: Optional[int] = None) -> SqlType:
    """Resolve a type keyword (plus optional length) to a SqlType."""
    upper = type_name.upper()
    if upper == "VARCHAR":
        if type_arg is None:
            raise SchemaError("VARCHAR requires a length")
        return SqlType("VARCHAR", str, max_length=type_arg)
    base = _TYPES.get(upper)
    if base is None:
        raise SchemaError(f"unknown type {type_name!r}")
    return base

"""Table schemas."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..sql.ast import ColumnDef
from .errors import ConstraintError, SchemaError
from .types import SqlType, resolve_type

__all__ = ["Column", "TableSchema", "schema_from_ast"]


@dataclass(frozen=True)
class Column:
    """One column of a table schema."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    primary_key: bool = False
    auto_increment: bool = False
    default: Any = None
    has_default: bool = False


@dataclass
class TableSchema:
    """An ordered set of columns with exactly one primary key."""

    name: str
    columns: list[Column]
    _by_name: dict[str, Column] = field(init=False, repr=False)
    _primary_key: Column = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._by_name = {}
        pk_count = 0
        for column in self.columns:
            if column.name in self._by_name:
                raise SchemaError(f"duplicate column {column.name!r} "
                                  f"in table {self.name!r}")
            self._by_name[column.name] = column
            if column.primary_key:
                pk_count += 1
                self._primary_key = column
                if column.auto_increment \
                        and column.sql_type.python_type is not int:
                    raise SchemaError("AUTO_INCREMENT requires an integer "
                                      "primary key")
        if pk_count != 1:
            raise SchemaError(f"table {self.name!r} must have exactly one "
                              f"primary-key column, found {pk_count}")

    @property
    def primary_key(self) -> Column:
        return self._primary_key

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column {name!r} in table "
                              f"{self.name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def coerce_row(self, values: dict[str, Any],
                   auto_increment_value: Optional[int] = None
                   ) -> dict[str, Any]:
        """Build a full storage row from partial ``values``.

        Missing columns take their default (or the auto-increment
        value for the PK).  NOT NULL violations raise ConstraintError.
        """
        row: dict[str, Any] = {}
        for column in self.columns:
            if column.name in values:
                value = column.sql_type.coerce(values[column.name],
                                               column.name)
            elif column.auto_increment:
                value = auto_increment_value
            elif column.has_default:
                value = column.sql_type.coerce(column.default, column.name)
            else:
                value = None
            if value is None and not column.nullable \
                    and not column.auto_increment:
                raise ConstraintError(
                    f"column {column.name!r} of table {self.name!r} "
                    f"cannot be NULL")
            row[column.name] = value
        if not values.keys() <= self._by_name.keys():
            unknown = set(values) - set(self._by_name)
            raise SchemaError(f"unknown column(s) {sorted(unknown)!r} "
                              f"for table {self.name!r}")
        return row


def schema_from_ast(table: str, defs: tuple[ColumnDef, ...]) -> TableSchema:
    """Build a TableSchema from parsed CREATE TABLE column definitions."""
    columns = []
    for definition in defs:
        sql_type = resolve_type(definition.type_name, definition.type_arg)
        has_default = definition.default is not None
        columns.append(Column(
            name=definition.name,
            sql_type=sql_type,
            nullable=definition.nullable and not definition.primary_key,
            primary_key=definition.primary_key,
            auto_increment=definition.auto_increment,
            default=definition.default.value if has_default else None,
            has_default=has_default,
        ))
    return TableSchema(table, columns)

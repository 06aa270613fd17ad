"""In-memory tables with primary-key storage and secondary indexes."""

from __future__ import annotations

from typing import Any, Iterator, Optional

from .errors import DuplicateKeyError, SchemaError
from .index import Index
from .schema import TableSchema

__all__ = ["Table"]


class Table:
    """Row storage keyed on the primary key, plus secondary indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: Row dicts are replace-on-write: every mutation stores a *new*
        #: dict and none is ever edited in place, so clones (snapshots,
        #: replicas, the cached dataset image) may share them.
        self.rows: dict[Any, dict[str, Any]] = {}
        self.indexes: dict[str, Index] = {}
        self._next_auto_increment = 1

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def primary_key_column(self) -> str:
        return self.schema.primary_key.name

    def clone(self) -> "Table":
        """An independent table with the same contents.

        Own row map, own indexes; the row dicts (see :attr:`rows`) and
        the schema (never altered after CREATE TABLE) are shared.
        """
        twin = Table(self.schema)
        twin.rows = dict(self.rows)
        twin.indexes = {name: index.clone()
                        for name, index in self.indexes.items()}
        twin._next_auto_increment = self._next_auto_increment
        return twin

    # -- indexes ---------------------------------------------------------------
    def create_index(self, name: str, columns: tuple[str, ...],
                     unique: bool = False) -> Index:
        if name in self.indexes:
            raise SchemaError(f"index {name!r} already exists on "
                              f"table {self.name!r}")
        for column in columns:
            self.schema.column(column)  # validates existence
        index = Index(name, columns, unique)
        index.rebuild(self.rows.items())
        self.indexes[name] = index
        return index

    def index_on(self, column: str) -> Optional[Index]:
        """Any index whose leading column is ``column``."""
        for index in self.indexes.values():
            if index.columns[0] == column:
                return index
        return None

    # -- mutations ---------------------------------------------------------------
    def insert(self, values: dict[str, Any]) -> Any:
        """Insert a row from partial column values; returns the pk."""
        pk_column = self.primary_key_column
        auto_value = None
        if self.schema.primary_key.auto_increment \
                and pk_column not in values:
            auto_value = self._next_auto_increment
        row = self.schema.coerce_row(values, auto_increment_value=auto_value)
        pk = row[pk_column]
        if pk is None:
            raise SchemaError(f"primary key {pk_column!r} cannot be NULL")
        if pk in self.rows:
            raise DuplicateKeyError(
                f"duplicate primary key {pk!r} in table {self.name!r}")
        # Maintain auto-increment high-water mark (MySQL semantics).
        if isinstance(pk, int) and pk >= self._next_auto_increment:
            self._next_auto_increment = pk + 1
        for index in self.indexes.values():
            index.add(row, pk)  # may raise DuplicateKeyError for unique
        self.rows[pk] = row
        return pk

    def update(self, pk: Any, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply ``changes`` to the row at ``pk``; returns the OLD row."""
        row = self.rows[pk]
        old_row = dict(row)
        new_row = dict(row)
        for column, value in changes.items():
            col = self.schema.column(column)
            new_row[column] = col.sql_type.coerce(value, column)
            if new_row[column] is None and not col.nullable:
                raise SchemaError(f"column {column!r} cannot be NULL")
        new_pk = new_row[self.primary_key_column]
        if new_pk != pk:
            if new_pk in self.rows:
                raise DuplicateKeyError(
                    f"duplicate primary key {new_pk!r} in {self.name!r}")
            del self.rows[pk]
            self.rows[new_pk] = new_row
        else:
            self.rows[pk] = new_row
        for index in self.indexes.values():
            index.remove(old_row, pk)
            index.add(new_row, new_pk)
        return old_row

    def delete(self, pk: Any) -> dict[str, Any]:
        """Remove the row at ``pk``; returns it."""
        row = self.rows.pop(pk)
        for index in self.indexes.values():
            index.remove(row, pk)
        return row

    def restore(self, pk: Any, row: dict[str, Any]) -> None:
        """Undo helper: put a previously deleted row back verbatim."""
        if pk in self.rows:
            raise DuplicateKeyError(f"pk {pk!r} already present")
        self.rows[pk] = dict(row)
        for index in self.indexes.values():
            index.add(row, pk)

    # -- reads ------------------------------------------------------------------
    def get(self, pk: Any) -> Optional[dict[str, Any]]:
        return self.rows.get(pk)

    def scan(self) -> Iterator[tuple[Any, dict[str, Any]]]:
        """All (pk, row) pairs in insertion order."""
        yield from self.rows.items()

    def checksum_state(self) -> tuple:
        """A canonical, comparable snapshot of table contents.

        Used by tests and by the replication manager's consistency
        checker to verify that replicas converge to identical state.
        """
        pk_column = self.primary_key_column
        ordered = sorted(self.rows, key=lambda k: (str(type(k)), str(k)))
        return tuple(
            (pk, tuple(sorted(self.rows[pk].items())))
            for pk in ordered)

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
        #: The schema's name and primary-key column (a schema is never
        #: altered after CREATE TABLE).
        self.name: str = schema.name
        self.primary_key_column: str = schema.primary_key.name
        #: Row dicts are replace-on-write: every mutation stores a *new*
        #: dict and none is ever edited in place, so clones (snapshots,
        #: replicas, the cached dataset image) may share them.
        self.rows: dict[Any, dict[str, Any]] = {}
        self.indexes: dict[str, Index] = {}
        self._next_auto_increment = 1
        #: Set by :meth:`clone` on both sides: :attr:`rows` and
        #: :attr:`indexes` may be another table's too, and the first
        #: write takes private copies (:meth:`_own`).
        self._shared = False

    def __len__(self) -> int:
        return len(self.rows)

    def clone(self) -> "Table":
        """An independent table with the same contents, copied on write.

        The twin starts on this table's row map and indexes, and both
        are marked shared: whichever side writes first copies the map
        and the indexes before it does (the row dicts, see
        :attr:`rows`, and the schema, never altered after CREATE TABLE,
        stay shared).  A clone costs O(1); a replica nobody writes to
        never copies at all.
        """
        twin = Table(self.schema)
        twin.rows = self.rows
        twin.indexes = self.indexes
        twin._next_auto_increment = self._next_auto_increment
        twin._shared = self._shared = True
        return twin

    def _own(self) -> None:
        """Trade the shared row map and indexes for private copies;
        every mutator calls this first while :attr:`_shared` is set."""
        self.rows = dict(self.rows)
        self.indexes = {name: index.clone()
                        for name, index in self.indexes.items()}
        self._shared = False

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
        if self._shared:
            self._own()
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
        if self._shared:
            self._own()
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
        indexes = self.indexes.values()
        for index in indexes:  # refuse before touching any index
            index.check(row, pk)
        for index in indexes:
            index.add(row, pk)
        self.rows[pk] = row
        return pk

    def update(self, pk: Any, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply ``changes`` to the row at ``pk``; returns the OLD row."""
        if self._shared:
            self._own()
        row = self.rows[pk]
        old_row = dict(row)
        new_row = dict(row)
        for column, value in changes.items():
            col = self.schema.column(column)
            new_row[column] = col.sql_type.coerce(value, column)
            if new_row[column] is None and not col.nullable:
                raise SchemaError(f"column {column!r} cannot be NULL")
        new_pk = new_row[self.primary_key_column]
        moved = new_pk != pk
        if moved and new_pk in self.rows:
            raise DuplicateKeyError(
                f"duplicate primary key {new_pk!r} in {self.name!r}")
        # Only an index whose key or pk moved has anything to change.
        changed = [index for index in self.indexes.values()
                   if moved or index.key_of(row) != index.key_of(new_row)]
        for index in changed:  # refuse before touching anything
            index.check(new_row, pk)
        if moved:
            del self.rows[pk]
        self.rows[new_pk] = new_row
        for index in changed:
            index.remove(old_row, pk)
            index.add(new_row, new_pk)
        return old_row

    def delete(self, pk: Any) -> dict[str, Any]:
        """Remove the row at ``pk``; returns it."""
        if self._shared:
            self._own()
        row = self.rows.pop(pk)
        for index in self.indexes.values():
            index.remove(row, pk)
        return row

    def restore(self, pk: Any, row: dict[str, Any]) -> None:
        """Undo helper: put a previously deleted row back verbatim."""
        if self._shared:
            self._own()
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

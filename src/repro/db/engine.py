"""The storage engine: statement execution against in-memory tables.

One :class:`StorageEngine` instance is the data of one MySQL-like
server.  It executes parsed statements (or SQL text), maintains
secondary indexes, supports transactions with an undo log, and reports
an :class:`ExecutionProfile` per statement so the simulated server can
charge CPU time proportional to the actual work done (rows examined /
mutated, index vs. scan).

The engine itself runs in zero simulated time; *when* things happen is
the business of :mod:`repro.replication.server`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from ..sql.ast import (BeginStatement, CommitStatement,
                       CreateDatabaseStatement, CreateIndexStatement,
                       CreateTableStatement, DeleteStatement,
                       DropTableStatement, InsertStatement,
                       RollbackStatement, SelectStatement, Statement,
                       UpdateStatement, UseStatement)
from ..sql.expressions import EvaluationError
from ..sql.parser import parse
from ..sql.plancache import PlanCache
from ..sql.render import render_expression, render_statement
from .errors import (DatabaseError, ExpressionError, SchemaError,
                     TableNotFoundError, TransactionError)
from .plan import Plan, plan_for
from .schema import schema_from_ast
from .table import Table
from .transaction import Transaction, UndoRecord

__all__ = ["ResultSet", "ExecutionProfile", "ExecutionResult",
           "StorageEngine"]


@dataclass(slots=True)
class ResultSet:
    """Rows returned to the client."""

    columns: list[str] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0          # affected rows for DML
    lastrowid: Optional[int] = None

    def scalar(self) -> Any:
        """First column of the first row (or None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


@dataclass(slots=True)
class ExecutionProfile:
    """What the statement actually did — input to the CPU cost model."""

    kind: str                 # select | insert | update | delete | ddl | txn | use
    table: Optional[str] = None
    rows_examined: int = 0
    rows_returned: int = 0
    rows_affected: int = 0
    used_index: bool = False
    joined_tables: int = 0


@dataclass(slots=True)
class ExecutionResult:
    """Result + profile + the statements destined for the binlog."""

    result: ResultSet
    profile: ExecutionProfile
    #: (text, database) pairs committed by this call (autocommit or COMMIT).
    committed: list[tuple[str, str]] = field(default_factory=list)


class StorageEngine:
    """Executes statements; one instance per simulated database server."""

    def __init__(self,
                 functions: Optional[Mapping[str, Callable]] = None,
                 default_database: str = "main",
                 commit_listener: Optional[
                     Callable[[list[tuple[str, str]]], None]] = None,
                 plan_cache: Optional[PlanCache] = None):
        self.functions = dict(functions or {})
        self.default_database = default_database
        #: Optional prepared-plan cache for SQL-text execution; safe to
        #: share across engines (frozen ASTs, engine-free compiled plans).
        self.plan_cache = plan_cache
        self.databases: set[str] = {default_database}
        self.tables: dict[str, Table] = {}
        self.commit_listener = commit_listener
        self.transaction: Optional[Transaction] = None
        self.statements_executed = 0
        #: "statement" logs SQL text (the paper's mode — required by
        #: its heartbeat methodology); "row" logs row images.
        self.binlog_format = "statement"

    # ------------------------------------------------------------- naming
    def qualify(self, name: str) -> str:
        return name if "." in name else f"{self.default_database}.{name}"

    def table(self, name: str) -> Table:
        qualified = self.qualify(name)
        table = self.tables.get(qualified)
        if table is None:
            raise TableNotFoundError(f"table {qualified!r} does not exist")
        return table

    def has_table(self, name: str) -> bool:
        return self.qualify(name) in self.tables

    # ------------------------------------------------------------ execute
    def execute(self, statement: Union[str, Statement],
                params: Optional[Sequence[Any]] = None,
                database: Optional[str] = None) -> ExecutionResult:
        """Execute one statement (SQL text or a parsed AST node).

        ``database`` overrides the session default database for this
        single call — the slave SQL thread uses it to run each binlog
        event against the event's recorded database without disturbing
        concurrent client sessions.
        """
        if database is not None:
            saved = self.default_database
            self.default_database = database
            try:
                return self.execute(statement, params)
            finally:
                self.default_database = saved
        if isinstance(statement, str):
            cache = self.plan_cache
            if cache is None:
                statement = parse(statement)
            else:
                statement, params = cache.prepare(statement, params)
        self.statements_executed += 1
        params = params or ()
        try:
            if isinstance(statement, SelectStatement):
                result, profile = self._execute_select(statement, params)
                return ExecutionResult(result, profile)
            if isinstance(statement, InsertStatement):
                return self._write(statement, params, self._execute_insert)
            if isinstance(statement, (UpdateStatement, DeleteStatement)):
                return self._write(statement, params, self._execute_modify)
        except (EvaluationError, TypeError) as exc:
            # An unknown column, an unbound parameter, '1 < "a"': the
            # statement is at fault, and callers handle DatabaseError.
            raise ExpressionError(str(exc)) from exc
        if isinstance(statement, (CreateTableStatement,
                                  CreateIndexStatement,
                                  DropTableStatement,
                                  CreateDatabaseStatement)):
            return self._execute_ddl(statement)
        if isinstance(statement, UseStatement):
            if statement.name not in self.databases:
                raise DatabaseError(f"unknown database {statement.name!r}")
            self.default_database = statement.name
            return ExecutionResult(ResultSet(), ExecutionProfile("use"))
        if isinstance(statement, BeginStatement):
            return self._begin()
        if isinstance(statement, CommitStatement):
            return self._commit()
        if isinstance(statement, RollbackStatement):
            return self._rollback()
        raise DatabaseError(
            f"cannot execute {type(statement).__name__}")

    # --------------------------------------------------------- transactions
    @property
    def in_transaction(self) -> bool:
        return self.transaction is not None

    def _begin(self) -> ExecutionResult:
        if self.transaction is not None:
            raise TransactionError("transaction already open")
        self.transaction = Transaction()
        return ExecutionResult(ResultSet(), ExecutionProfile("txn"))

    def _commit(self) -> ExecutionResult:
        if self.transaction is None:
            raise TransactionError("COMMIT without open transaction")
        committed = self.transaction.binlog_statements
        self.transaction = None
        if committed and self.commit_listener is not None:
            self.commit_listener(committed)
        return ExecutionResult(ResultSet(), ExecutionProfile("txn"),
                               committed=list(committed))

    def _rollback(self) -> ExecutionResult:
        if self.transaction is None:
            raise TransactionError("ROLLBACK without open transaction")
        for record in reversed(self.transaction.undo):
            self._undo(record)
        self.transaction = None
        return ExecutionResult(ResultSet(), ExecutionProfile("txn"))

    def _undo(self, record: UndoRecord) -> None:
        table = self.tables[record.table]
        if record.kind == "insert":
            table.delete(record.pk)
        elif record.kind == "update":
            # record.pk is where the row lives NOW (updates can move the
            # primary key); restore the old row at its old location.
            table.delete(record.pk)
            table.restore(record.old_row[table.primary_key_column],
                          record.old_row)
        elif record.kind == "delete":
            table.restore(record.pk, record.old_row)
        else:  # pragma: no cover - defensive
            raise DatabaseError(f"unknown undo kind {record.kind!r}")

    def _write(self, statement: Statement, params: Sequence[Any],
               runner: Callable) -> ExecutionResult:
        """Run a DML statement inside the open (or an implicit) txn."""
        implicit = self.transaction is None
        if implicit:
            self.transaction = Transaction()
        undo = self.transaction.undo
        undo_start = len(undo)
        try:
            result, profile = runner(statement, params)
        except BaseException:
            # Whatever went wrong, the statement leaves no trace: undo
            # its own mutations and close a transaction it opened.
            for record in reversed(undo[undo_start:]):
                self._undo(record)
            del undo[undo_start:]
            if implicit:
                self.transaction = None
            raise
        if profile.rows_affected > 0:
            if self.binlog_format == "row":
                ops = self._row_ops_since(undo_start)
                self.transaction.record_statement(ops,
                                                  self.default_database)
            else:
                text = render_statement(statement, params)
                self.transaction.record_statement(text,
                                                  self.default_database)
        if implicit:
            return ExecutionResult(result, profile,
                                   committed=self._commit().committed)
        return ExecutionResult(result, profile)

    def _row_ops_since(self, undo_start: int) -> tuple:
        """Row images for the undo records of the last statement.

        Captured immediately after the statement runs, so the images
        reflect its effects and not those of later statements.
        """
        from .rowevents import RowOp
        ops = []
        for record in self.transaction.undo[undo_start:]:
            table = self.tables[record.table]
            if record.kind == "insert":
                ops.append(RowOp("insert", record.table, record.pk,
                                 dict(table.rows[record.pk])))
            elif record.kind == "update":
                old_pk = record.old_row[table.primary_key_column]
                ops.append(RowOp("update", record.table, old_pk,
                                 dict(table.rows[record.pk])))
            else:
                ops.append(RowOp("delete", record.table, record.pk))
        return tuple(ops)

    # ----------------------------------------------------------------- DDL
    def _execute_ddl(self, statement: Statement) -> ExecutionResult:
        if self.transaction is not None:
            raise TransactionError("DDL inside a transaction is not "
                                   "supported (MySQL would implicitly "
                                   "commit; be explicit instead)")
        profile = ExecutionProfile("ddl")
        if isinstance(statement, CreateDatabaseStatement):
            if statement.name in self.databases:
                if not statement.if_not_exists:
                    raise SchemaError(
                        f"database {statement.name!r} already exists")
            self.databases.add(statement.name)
        elif isinstance(statement, CreateTableStatement):
            qualified = self.qualify(statement.table)
            database = qualified.split(".", 1)[0]
            if database not in self.databases:
                raise DatabaseError(f"unknown database {database!r}")
            if qualified in self.tables:
                if not statement.if_not_exists:
                    raise SchemaError(f"table {qualified!r} already exists")
            else:
                schema = schema_from_ast(qualified, statement.columns)
                self.tables[qualified] = Table(schema)
            profile.table = qualified
        elif isinstance(statement, CreateIndexStatement):
            table = self.table(statement.table)
            table.create_index(statement.name, statement.columns,
                               statement.unique)
            profile.table = table.name
            profile.rows_examined = len(table)
        elif isinstance(statement, DropTableStatement):
            qualified = self.qualify(statement.table)
            if qualified not in self.tables:
                if not statement.if_exists:
                    raise TableNotFoundError(
                        f"table {qualified!r} does not exist")
            else:
                del self.tables[qualified]
            profile.table = qualified
        text = render_statement(statement)
        committed = [(text, self.default_database)]
        if self.commit_listener is not None:
            self.commit_listener(committed)
        return ExecutionResult(ResultSet(), profile, committed=committed)

    # ----------------------------------------------------------------- DML
    # Expressions arrive compiled (:mod:`.plan`) to closures over ``(row,
    # params, functions)``; a row is a tuple of stored rows, one per table.
    def _execute_insert(self, statement: InsertStatement,
                        params: Sequence[Any]
                        ) -> tuple[ResultSet, ExecutionProfile]:
        table = self.table(statement.table)
        columns = statement.columns or tuple(table.schema.column_names)
        functions = self.functions
        lastrowid = None
        for values in plan_for(statement).rows:
            if len(values) != len(columns):
                raise SchemaError(
                    f"INSERT has {len(values)} values for "
                    f"{len(columns)} columns")
            pk = table.insert({column: value((), params, functions)
                               for column, value in zip(columns, values)})
            self.transaction.record(UndoRecord("insert", table.name, pk))
            if isinstance(pk, int):
                lastrowid = pk
        profile = ExecutionProfile("insert", table=table.name,
                                   rows_affected=len(statement.rows))
        result = ResultSet(rowcount=len(statement.rows), lastrowid=lastrowid)
        return result, profile

    def _execute_modify(self, statement: Union[UpdateStatement,
                                               DeleteStatement],
                        params: Sequence[Any]
                        ) -> tuple[ResultSet, ExecutionProfile]:
        """UPDATE and DELETE: the rows the WHERE selects, one by one."""
        table = self.table(statement.table)
        plan = plan_for(statement, (table,))
        pks, examined, used_index = self._candidates(table, plan, params)
        functions = self.functions
        kind = "delete" if isinstance(statement, DeleteStatement) \
            else "update"
        pk_column = table.primary_key_column
        affected = 0
        for pk in pks:
            row = (table.rows[pk],)
            if plan.where is not None \
                    and not plan.where(row, params, functions):
                continue
            if kind == "delete":
                old_row = table.delete(pk)
            else:
                changes = {column: value(row, params, functions)
                           for column, value in plan.assignments}
                old_row = table.update(pk, changes)
                if pk_column in changes:  # the undo needs the new home
                    pk = table.schema.primary_key.sql_type.coerce(
                        changes[pk_column], pk_column)
            self.transaction.record(
                UndoRecord(kind, table.name, pk, old_row))
            affected += 1
        profile = ExecutionProfile(kind, table=table.name,
                                   rows_examined=examined,
                                   rows_affected=affected,
                                   used_index=used_index)
        return ResultSet(rowcount=affected), profile

    # -------------------------------------------------------------- SELECT
    def _execute_select(self, statement: SelectStatement,
                        params: Sequence[Any]
                        ) -> tuple[ResultSet, ExecutionProfile]:
        profile = ExecutionProfile("select")
        functions = self.functions
        if statement.table is None:
            # Table-less select: SELECT 1, SELECT USEC_NOW(), ...
            rows = [()]
            plan = plan_for(statement)
        else:
            table = self.table(statement.table)
            tables = [table] + [self.table(join.table)
                                for join in statement.joins]
            plan = plan_for(statement, tables)
            profile.table = table.name
            pks, profile.rows_examined, profile.used_index = \
                self._candidates(table, plan, params)
            rows = [(table.rows[pk],) for pk in pks]
            # Joins: nested loop with index lookup where possible.
            for right, join in zip(tables[1:], plan.joins):
                rows, examined = self._join(rows, right, join, params)
                profile.rows_examined += examined
                profile.joined_tables += 1
            # WHERE residual filtering (join rows need every table).
            if plan.where is not None:
                where = plan.where
                rows = [row for row in rows if where(row, params, functions)]

        if plan.grouped:  # from here on a "row" is a group of rows
            rows = self._groups(plan, rows, params)
        # ORDER BY before projection (keys may not be projected); stable
        # sorts in reverse clause order give multi-key ordering with
        # per-key ASC/DESC.
        for key, descending in reversed(plan.order_by):
            rows = sorted(rows, reverse=descending,
                          key=lambda row: _sort_key(
                              key(row, params, functions)))
        items = plan.items
        rows = [tuple([item(row, params, functions) for item in items])
                for row in rows]
        if statement.distinct:
            rows = list(dict.fromkeys(rows))
        if statement.offset:
            rows = rows[statement.offset:]
        if statement.limit is not None:
            rows = rows[:statement.limit]
        profile.rows_returned = len(rows)
        columns = [label if isinstance(label, str)
                   else render_expression(label, params).lower()
                   for label in plan.columns]
        return ResultSet(columns=columns, rows=rows,
                         rowcount=len(rows)), profile

    def _join(self, rows: list[tuple], right: Table, join: tuple,
              params: Sequence[Any]) -> tuple[list[tuple], int]:
        probes, condition = join
        functions = self.functions
        # Probe the right table's pk or an index on the first
        # ``left_expr = right.col`` conjunct that allows it.
        probe = next((candidate for candidate in probes
                      if candidate[0] == right.primary_key_column
                      or right.index_on(candidate[0]) is not None), None)
        stored = right.rows
        joined: list[tuple] = []
        examined = 0
        for row in rows:
            candidates = stored if probe is None else _lookup_by_column(
                right, probe[0], probe[1](row, params, functions))
            for pk in candidates:
                examined += 1
                combined = row + (stored[pk],)
                if condition(combined, params, functions):
                    joined.append(combined)
        return joined, examined

    def _groups(self, plan: Plan, rows: list[tuple],
                params: Sequence[Any]) -> list[list[tuple]]:
        """GROUP BY and HAVING: the surviving groups, in first-seen order.

        Follows MySQL's permissive (pre-ONLY_FULL_GROUP_BY) semantics:
        a non-aggregate expression in the select list evaluates against
        an arbitrary (the first) row of each group.
        """
        functions = self.functions
        if plan.group_by:
            keyed: dict[tuple, list[tuple]] = {}
            for row in rows:
                key = tuple(expr(row, params, functions)
                            for expr in plan.group_by)
                keyed.setdefault(key, []).append(row)
            groups = list(keyed.values())
        else:
            # Implicit single group — even over an empty input
            # (COUNT(*) of an empty table is 0, not no-rows).
            groups = [rows]
        if plan.having is not None:
            groups = [members for members in groups
                      if plan.having(members, params, functions)]
        return groups

    # ------------------------------------------------------------ planning
    def _candidates(self, table: Table, plan: Plan, params: Sequence[Any]
                    ) -> tuple[list, int, bool]:
        """Choose an access path; returns (pks, rows_examined, used_index).

        The plan names the probes the WHERE allows; whether the schema
        and today's indexes serve one is decided here.  The pks are
        *candidates*: the caller still applies the full WHERE.
        """
        functions = self.functions
        for column, value_of in plan.probes[0]:
            if not table.schema.has_column(column):
                continue
            value = value_of((), params, functions)
            if column == table.primary_key_column:
                pk_value = table.schema.primary_key.sql_type.coerce(
                    value, column)
                return ([pk_value] if pk_value in table.rows else []), 1, True
            index = table.index_on(column)
            if index is not None and len(index.columns) == 1:
                # lookup() returns a frozenset; sort so unordered
                # SELECTs return rows in pk order, not hash order.
                pks = sorted(index.lookup((value,)))
                return pks, len(pks), True
        # Range probe on a single-column index.
        for column, low_of, high_of, incl_low, incl_high in plan.probes[1]:
            index = table.index_on(column)
            if index is None or len(index.columns) != 1:
                continue
            low = None if low_of is None \
                else (low_of((), params, functions),)
            high = None if high_of is None \
                else (high_of((), params, functions),)
            pks = list(index.range_scan(low, high, incl_low, incl_high))
            return pks, len(pks), True
        return list(table.rows), len(table), False

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> dict:
        """A clone of all data — the slave initial-sync payload; later
        writes to this engine never show in it.

        ``databases`` is a *sorted list*, not a set: the payload must
        serialize identically across runs (and across hosts with
        different hash seeds) for replay comparisons to hold.
        """
        return {
            "databases": sorted(self.databases),
            "default_database": self.default_database,
            "tables": {name: table.clone()
                       for name, table in self.tables.items()},
        }

    def restore(self, snapshot: dict) -> None:
        """Load a snapshot previously produced by :meth:`snapshot`,
        cloning again: one snapshot can seed many independent replicas."""
        self.databases = set(snapshot["databases"])
        self.default_database = snapshot["default_database"]
        self.tables = {name: table.clone()
                       for name, table in snapshot["tables"].items()}
        self.transaction = None

    def checksum(self) -> tuple:
        """Canonical snapshot of all table contents, for convergence
        checks between replicas."""
        return tuple(
            (name, self.tables[name].checksum_state())
            for name in sorted(self.tables))


# ------------------------------------------------------------------ helpers
def _sort_key(value: Any) -> tuple:
    """Total order over SQL values: NULLs first, then numbers, then text."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, (bool, int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


def _lookup_by_column(table: Table, column: str, value: Any) -> list:
    if column == table.primary_key_column:
        return [value] if value in table.rows else []
    index = table.index_on(column)
    if index is not None and len(index.columns) == 1:
        # Sorted like _candidates' lookup: a bucket's set order is not
        # the same on a replica that cloned it.
        return sorted(index.lookup((value,)))
    return list(table.rows)

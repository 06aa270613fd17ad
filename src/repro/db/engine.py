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
from itertools import islice
from typing import (Any, Callable, Iterable, Iterator, Mapping, Optional,
                    Sequence, Union)

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
    #: What this call committed (autocommit or COMMIT), as the
    #: transaction recorded it: ``(payload, params, database)``.
    commits: Sequence[tuple] = ()

    @property
    def committed(self) -> list[tuple[Any, str]]:
        """``(text, database)`` pairs committed by this call (row
        images instead of text in row format), rendered on read."""
        return _rendered(self.commits)


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
        return ExecutionResult(ResultSet(), ExecutionProfile("txn"),
                               self._publish())

    def _publish(self) -> list[tuple]:
        """Close the open transaction and hand its writes, if any, to
        the commit listener; returns them."""
        commits = self.transaction.binlog_statements
        self.transaction = None
        if commits and self.commit_listener is not None:
            self.commit_listener(_rendered(commits))
        return commits

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
            # Row images must be taken now; statement text is rendered
            # only if someone reads it (a slave applying events never
            # does).
            if self.binlog_format == "row":
                self.transaction.record_statement(
                    self._row_ops_since(undo_start), None,
                    self.default_database)
            else:
                self.transaction.record_statement(
                    statement, tuple(params), self.default_database)
        if implicit:
            return ExecutionResult(result, profile, self._publish())
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
        commits = [(statement, None, self.default_database)]
        if self.commit_listener is not None:
            self.commit_listener(_rendered(commits))
        return ExecutionResult(ResultSet(), profile, commits)

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
        pks, _count, examined, used_index, exact, _ordered = \
            self._candidates(table, plan, params)
        pks = list(pks)  # the walk below changes the indexes
        where = None if exact else plan.where
        functions = self.functions
        kind = "delete" if isinstance(statement, DeleteStatement) \
            else "update"
        pk_column = table.primary_key_column
        affected = 0
        for pk in pks:
            row = (table.rows[pk],)
            if where is not None and not where(row, params, functions):
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
        """Answer a SELECT, touching only the rows the answer needs.

        ``rows_examined`` counts every candidate of the access path all
        the same: it is what the cost model charges for.
        """
        profile = ExecutionProfile("select")
        functions = self.functions
        offset, limit = statement.offset or 0, statement.limit
        if statement.table is None:
            # Table-less select (SELECT 1, SELECT USEC_NOW(), ...): one
            # empty row, which WHERE and grouping see like any other.
            plan = plan_for(statement)
            rows, where, ordered = [()], plan.where, False
        else:
            table = self.table(statement.table)
            tables = [table] + [self.table(join.table)
                                for join in statement.joins]
            plan = plan_for(statement, tables)
            profile.table = table.name
            pks, count, profile.rows_examined, profile.used_index, exact, \
                ordered = self._candidates(table, plan, params,
                                           plan.order_column)
            where = None if exact else plan.where
            stored = table.rows
            if plan.joins:
                # Nested loop with index lookup where possible.
                rows = [(stored[pk],) for pk in pks]
                for right, join in zip(tables[1:], plan.joins):
                    rows, examined = self._join(rows, right, join, params)
                    profile.rows_examined += examined
                    profile.joined_tables += 1
            elif plan.count_star and where is None:
                rows = _page([(count,)], offset, limit)
                profile.rows_returned = len(rows)
                return ResultSet(columns=list(plan.labels), rows=rows,
                                 rowcount=len(rows)), profile
            elif plan.pure and not plan.grouped and not statement.distinct \
                    and (ordered or not plan.order_by):
                # The candidates arrive in answer order: walk them only
                # as far as the last row the page shows.
                stop = None if limit is None else offset + limit
                if where is None:
                    rows = [(stored[pk],) for pk in islice(pks, stop)]
                else:
                    rows = list(islice(_passing(pks, stored, where, params,
                                                functions), stop))
                    where = None
            else:
                rows = [(stored[pk],) for pk in pks]
        # WHERE residual filtering (join rows need every table).
        if where is not None:
            rows = [row for row in rows if where(row, params, functions)]
        if plan.grouped:  # from here on a "row" is a group of rows
            rows = self._groups(plan, rows, params)
        # ORDER BY before projection (keys may not be projected); stable
        # sorts in reverse clause order give multi-key ordering with
        # per-key ASC/DESC.
        if not ordered:
            for key, descending in reversed(plan.order_by):
                rows = _sorted(rows, [key(row, params, functions)
                                      for row in rows], descending)
        if statement.distinct or not plan.pure:
            rows = self._project(plan, rows, params)
            if statement.distinct:
                rows = list(dict.fromkeys(rows))
            rows = _page(rows, offset, limit)
        else:  # project only the page
            rows = self._project(plan, _page(rows, offset, limit), params)
        profile.rows_returned = len(rows)
        columns = list(plan.labels) if plan.labels is not None else [
            label if isinstance(label, str)
            else render_expression(label, params).lower()
            for label in plan.columns]
        return ResultSet(columns=columns, rows=rows,
                         rowcount=len(rows)), profile

    def _project(self, plan: Plan, rows: list,
                 params: Sequence[Any]) -> list[tuple]:
        if plan.reads is not None:  # plain columns of one table
            position, get, single = plan.reads
            if single:
                return [(get(row[position]),) for row in rows]
            return [get(row[position]) for row in rows]
        functions, items = self.functions, plan.items
        return [tuple([item(row, params, functions) for item in items])
                for row in rows]

    def _join(self, rows: list[tuple], right: Table, join: tuple,
              params: Sequence[Any]) -> tuple[list[tuple], int]:
        probes, condition, exact = join
        functions = self.functions
        # Probe the right table's pk or an index on the first
        # ``left_expr = right.col`` conjunct that allows it (an index
        # over more columns than that one means a scan after all).
        probe = next((candidate for candidate in probes
                      if candidate[0] == right.primary_key_column
                      or right.index_on(candidate[0]) is not None), None)
        stored = right.rows
        index = None
        if probe is not None and probe[0] != right.primary_key_column:
            index = right.index_on(probe[0])
            if len(index.columns) != 1:
                probe = None
        joined: list[tuple] = []
        examined = 0
        for row in rows:
            if probe is None:
                candidates, check = stored, True
            else:
                value = probe[1](row, params, functions)
                if index is None:
                    candidates = (value,) if value in stored else ()
                else:
                    candidates = index.lookup((value,))
                # A lookup finds exactly the rows equal to a non-NULL
                # value: a lone ``=`` condition holds for each of them.
                check = not exact or value is None
            examined += len(candidates)
            for pk in candidates:
                combined = row + (stored[pk],)
                if not check or condition(combined, params, functions):
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
    def _candidates(self, table: Table, plan: Plan, params: Sequence[Any],
                    order: Optional[tuple[str, bool]] = None
                    ) -> tuple[Iterable, int, int, bool, bool, bool]:
        """Choose an access path: ``(pks, count, rows_examined,
        used_index, exact, ordered)``.

        The plan names the probes the WHERE allows; whether the schema
        and today's indexes serve one is decided here.  ``pks`` are
        ``count`` *candidates*: the caller still applies the full WHERE
        unless ``exact`` says the probe enforced it (the WHERE is that
        one conjunct, and no probe value is NULL).  A range yields its
        pks lazily in (key, pk) order, in ``order``'s direction when it
        ranges over ``order``'s column (then ``ordered`` is True).
        """
        functions = self.functions
        for column, value_of in plan.probes[0]:
            if not table.schema.has_column(column):
                continue
            value = value_of((), params, functions)
            exact = plan.where_is_probe and value is not None
            if column == table.primary_key_column:
                pk_value = table.schema.primary_key.sql_type.coerce(
                    value, column)
                pks = [pk_value] if pk_value in table.rows else []
                # ``id = 5`` on a text key finds row '5', which the
                # WHERE (comparing as stored) then rejects.
                return pks, len(pks), 1, True, \
                    exact and type(pk_value) is type(value), False
            index = table.index_on(column)
            if index is not None and len(index.columns) == 1:
                # Buckets are immutable and in pk order, so unordered
                # SELECTs return rows in pk order, and a write may walk
                # the bucket while replacing it.
                pks = index.lookup((value,))
                return pks, len(pks), len(pks), True, exact, False
        # Range probe on a single-column index.
        for column, low_of, high_of, incl_low, incl_high in plan.probes[1]:
            index = table.index_on(column)
            if index is None or len(index.columns) != 1:
                continue
            low = None if low_of is None \
                else (low_of((), params, functions),)
            high = None if high_of is None \
                else (high_of((), params, functions),)
            if (None,) in (low, high):  # ``col < NULL`` holds for no row
                return (), 0, 0, True, True, True
            keys = index.range_keys(low, high, incl_low, incl_high)
            count = index.count(keys)
            ordered = order is not None and order[0] == column
            if ordered and order[1]:
                # Keys descending, each key's pks still ascending: what
                # a stable descending sort of (key, pk) order gives.
                keys.reverse()
            return index.pks_under(keys), count, count, True, \
                plan.where_is_probe, ordered
        if order is not None and order[0] == table.primary_key_column:
            # Primary keys are distinct: sorting them is the ORDER BY.
            return sorted(table.rows, reverse=order[1]), len(table), \
                len(table), False, False, True
        return list(table.rows), len(table), len(table), False, False, \
            False

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> dict:
        """A clone of all data — the slave initial-sync payload; later
        writes to this engine never show in it.  Tables are cloned
        copy-on-write (:meth:`Table.clone`), so this costs O(tables).

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
def _rendered(commits: Sequence[tuple]) -> list[tuple[Any, str]]:
    """Binlog payloads of transaction entries: a statement rendered to
    text with its params inlined, row images as they are."""
    return [(render_statement(payload, params)
             if isinstance(payload, Statement) else payload, database)
            for payload, params, database in commits]


def _passing(pks: Iterable, stored: dict, where: Callable,
             params: Sequence[Any], functions: Mapping) -> Iterator[tuple]:
    """The rows at ``pks`` that satisfy ``where``, lazily."""
    for pk in pks:
        row = (stored[pk],)
        if where(row, params, functions):
            yield row


def _page(rows: list, offset: int, limit: Optional[int]) -> list:
    """The OFFSET/LIMIT slice of ``rows``."""
    return rows[offset:] if limit is None else rows[offset:offset + limit]


def _sorted(rows: list, values: list, descending: bool) -> list:
    """``rows`` stably sorted on ``values``, one per row, in SQL order
    (:func:`_sort_key`): as Python orders the values themselves when
    they are all numbers or all text."""
    indexes = range(len(rows))
    try:
        if None in values:
            raise TypeError("NULLs sort first")
        order = sorted(indexes, key=values.__getitem__, reverse=descending)
    except TypeError:  # NULLs, or numbers mixed with text
        keys = list(map(_sort_key, values))
        order = sorted(indexes, key=keys.__getitem__, reverse=descending)
    return [rows[index] for index in order]


def _sort_key(value: Any) -> tuple:
    """Total order over SQL values: NULLs first, then numbers (compared
    exactly, as an index orders them), then text."""
    if value is None:
        return (0, 0, "")
    if isinstance(value, (bool, int, float)):
        return (1, value, "")
    return (2, 0, str(value))

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
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from ..sql.ast import (BeginStatement, BinaryOp, BetweenOp, ColumnRef,
                       CommitStatement, CreateDatabaseStatement,
                       CreateIndexStatement, CreateTableStatement,
                       DeleteStatement, DropTableStatement, Expression,
                       FunctionCall, InsertStatement, Literal, ParamRef,
                       RollbackStatement, SelectItem, SelectStatement, Star,
                       Statement, UpdateStatement, UseStatement)
from ..sql.expressions import EvalContext, evaluate
from ..sql.parser import parse
from ..sql.plancache import PlanCache
from ..sql.render import render_expression, render_statement
from .errors import (DatabaseError, SchemaError, TableNotFoundError,
                     TransactionError)
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
        #: share across engines (plans are frozen ASTs).
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
        if isinstance(statement, SelectStatement):
            result, profile = self._execute_select(statement, params)
            return ExecutionResult(result, profile)
        if isinstance(statement, InsertStatement):
            return self._write(statement, params, self._execute_insert)
        if isinstance(statement, UpdateStatement):
            return self._write(statement, params, self._execute_update)
        if isinstance(statement, DeleteStatement):
            return self._write(statement, params, self._execute_delete)
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
        undo_start = len(self.transaction.undo)
        try:
            result, profile = runner(statement, params)
        except DatabaseError:
            if implicit:
                # Roll the implicit transaction back entirely.
                for record in reversed(self.transaction.undo):
                    self._undo(record)
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
            committed = self.transaction.binlog_statements
            self.transaction = None
            if committed and self.commit_listener is not None:
                self.commit_listener(committed)
            return ExecutionResult(result, profile, committed=list(committed))
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
    def _execute_insert(self, statement: InsertStatement,
                        params: Sequence[Any]
                        ) -> tuple[ResultSet, ExecutionProfile]:
        table = self.table(statement.table)
        columns = statement.columns or tuple(table.schema.column_names)
        ctx = EvalContext(params=params, functions=self.functions)
        lastrowid = None
        for row_exprs in statement.rows:
            if len(row_exprs) != len(columns):
                raise SchemaError(
                    f"INSERT has {len(row_exprs)} values for "
                    f"{len(columns)} columns")
            values = {col: evaluate(expr, ctx)
                      for col, expr in zip(columns, row_exprs)}
            pk = table.insert(values)
            self.transaction.record(UndoRecord("insert", table.name, pk))
            if isinstance(pk, int):
                lastrowid = pk
        profile = ExecutionProfile("insert", table=table.name,
                                   rows_affected=len(statement.rows))
        result = ResultSet(rowcount=len(statement.rows), lastrowid=lastrowid)
        return result, profile

    def _execute_update(self, statement: UpdateStatement,
                        params: Sequence[Any]
                        ) -> tuple[ResultSet, ExecutionProfile]:
        table = self.table(statement.table)
        pks, examined, used_index = self._plan_where(
            table, statement.where, params)
        affected = 0
        for pk in list(pks):
            row = table.rows[pk]
            ctx = EvalContext(row=_namespace(table, None, row),
                              params=params, functions=self.functions)
            remaining = statement.where
            if remaining is not None and not _truthy(evaluate(remaining, ctx)):
                continue
            changes = {column: evaluate(expr, ctx)
                       for column, expr in statement.assignments}
            old_row = table.update(pk, changes)
            pk_column = table.primary_key_column
            new_pk = pk
            if pk_column in changes:
                new_pk = table.schema.primary_key.sql_type.coerce(
                    changes[pk_column], pk_column)
            self.transaction.record(
                UndoRecord("update", table.name, new_pk, old_row))
            affected += 1
        profile = ExecutionProfile("update", table=table.name,
                                   rows_examined=examined,
                                   rows_affected=affected,
                                   used_index=used_index)
        return ResultSet(rowcount=affected), profile

    def _execute_delete(self, statement: DeleteStatement,
                        params: Sequence[Any]
                        ) -> tuple[ResultSet, ExecutionProfile]:
        table = self.table(statement.table)
        pks, examined, used_index = self._plan_where(
            table, statement.where, params)
        affected = 0
        for pk in list(pks):
            row = table.rows[pk]
            ctx = EvalContext(row=_namespace(table, None, row),
                              params=params, functions=self.functions)
            if statement.where is not None \
                    and not _truthy(evaluate(statement.where, ctx)):
                continue
            old_row = table.delete(pk)
            self.transaction.record(
                UndoRecord("delete", table.name, pk, old_row))
            affected += 1
        profile = ExecutionProfile("delete", table=table.name,
                                   rows_examined=examined,
                                   rows_affected=affected,
                                   used_index=used_index)
        return ResultSet(rowcount=affected), profile

    # -------------------------------------------------------------- SELECT
    def _execute_select(self, statement: SelectStatement,
                        params: Sequence[Any]
                        ) -> tuple[ResultSet, ExecutionProfile]:
        profile = ExecutionProfile("select")
        if statement.table is None:
            # Table-less select: SELECT 1, SELECT USEC_NOW(), ...
            ctx = EvalContext(params=params, functions=self.functions)
            row = tuple(evaluate(item.expression, ctx)
                        for item in statement.items)
            columns = [_item_label(item, params) for item in statement.items]
            profile.rows_returned = 1
            return ResultSet(columns=columns, rows=[row], rowcount=1), profile

        table = self.table(statement.table)
        profile.table = table.name
        base_alias = statement.alias or _short_name(table.name)
        pks, examined, used_index = self._plan_where(
            table, statement.where, params)
        profile.used_index = used_index
        namespaces: list[dict[str, Any]] = []
        aliases: list[tuple[str, Table]] = [(base_alias, table)]
        for pk in pks:
            namespaces.append(_namespace(table, base_alias, table.rows[pk]))
        profile.rows_examined = examined

        # Joins: nested loop with index lookup where possible.
        for join in statement.joins:
            right = self.table(join.table)
            right_alias = join.alias or _short_name(right.name)
            aliases.append((right_alias, right))
            namespaces, join_examined = self._join(
                namespaces, right, right_alias, join.condition, params)
            profile.rows_examined += join_examined
            profile.joined_tables += 1

        # WHERE residual filtering (join rows need the full namespace).
        if statement.where is not None:
            filtered = []
            for namespace in namespaces:
                ctx = EvalContext(row=namespace, params=params,
                                  functions=self.functions)
                if _truthy(evaluate(statement.where, ctx)):
                    filtered.append(namespace)
            namespaces = filtered

        # Grouped / aggregate path.
        has_aggregate = any(_contains_aggregate(item.expression)
                            for item in statement.items) \
            or (statement.having is not None
                and _contains_aggregate(statement.having)) \
            or any(_contains_aggregate(o.expression)
                   for o in statement.order_by)
        if statement.group_by or has_aggregate:
            rows, columns = self._execute_grouped(statement, namespaces,
                                                  params)
            offset = statement.offset or 0
            if offset:
                rows = rows[offset:]
            if statement.limit is not None:
                rows = rows[:statement.limit]
            profile.rows_returned = len(rows)
            return ResultSet(columns=columns, rows=rows,
                             rowcount=len(rows)), profile

        # ORDER BY before projection (order keys may not be projected).
        if statement.order_by:
            namespaces = self._order(namespaces, statement.order_by, params)

        columns, rows = self._project(statement.items, namespaces, aliases,
                                      params)
        if statement.distinct:
            seen = set()
            unique_rows = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique_rows.append(row)
            rows = unique_rows
        offset = statement.offset or 0
        if offset:
            rows = rows[offset:]
        if statement.limit is not None:
            rows = rows[:statement.limit]
        profile.rows_returned = len(rows)
        return ResultSet(columns=columns, rows=rows,
                         rowcount=len(rows)), profile

    def _join(self, namespaces: list[dict], right: Table, right_alias: str,
              condition: Expression, params: Sequence[Any]
              ) -> tuple[list[dict], int]:
        examined = 0
        # Try to use an equality condition with the right table's pk or
        # an index:  left.col = right.col
        probe = _join_probe(condition, right, right_alias)
        joined: list[dict] = []
        for namespace in namespaces:
            if probe is not None:
                left_expr, right_column = probe
                ctx = EvalContext(row=namespace, params=params,
                                  functions=self.functions)
                value = evaluate(left_expr, ctx)
                candidate_pks = _lookup_by_column(right, right_column, value)
            else:
                candidate_pks = list(right.rows)
            for pk in candidate_pks:
                examined += 1
                combined = dict(namespace)
                combined.update(_namespace(right, right_alias,
                                           right.rows[pk]))
                ctx = EvalContext(row=combined, params=params,
                                  functions=self.functions)
                if _truthy(evaluate(condition, ctx)):
                    joined.append(combined)
        return joined, examined

    def _execute_grouped(self, statement: SelectStatement,
                         namespaces: list[dict], params: Sequence[Any]
                         ) -> tuple[list[tuple], list[str]]:
        """GROUP BY / aggregate execution.

        Follows MySQL's permissive (pre-ONLY_FULL_GROUP_BY) semantics:
        a non-aggregate expression in the select list evaluates against
        an arbitrary (the first) row of each group.
        """
        if statement.group_by:
            groups: dict[tuple, list[dict]] = {}
            for namespace in namespaces:
                ctx = EvalContext(row=namespace, params=params,
                                  functions=self.functions)
                key = tuple(_freeze(evaluate(g, ctx))
                            for g in statement.group_by)
                groups.setdefault(key, []).append(namespace)
            group_rows = list(groups.values())
        else:
            # Implicit single group — even over an empty input
            # (COUNT(*) of an empty table is 0, not no-rows).
            group_rows = [namespaces]

        columns = [_item_label(item, params) for item in statement.items]
        produced: list[tuple[tuple, tuple]] = []  # (order_keys, row)
        for members in group_rows:
            representative = members[0] if members else {}

            def group_eval(expr):
                substituted = self._substitute_aggregates(expr, members,
                                                          params)
                ctx = EvalContext(row=representative, params=params,
                                  functions=self.functions)
                return evaluate(substituted, ctx)

            if statement.having is not None \
                    and not _truthy(group_eval(statement.having)):
                continue
            row = tuple(group_eval(item.expression)
                        for item in statement.items)
            order_keys = tuple(
                (_sort_key(group_eval(o.expression)), o.descending)
                for o in statement.order_by)
            produced.append((order_keys, row))

        for index in reversed(range(len(statement.order_by))):
            descending = statement.order_by[index].descending
            produced.sort(key=lambda pair: pair[0][index][0],
                          reverse=descending)
        rows = [row for _keys, row in produced]
        if statement.distinct:
            seen: set = set()
            rows = [r for r in rows if not (r in seen or seen.add(r))]
        return rows, columns

    def _substitute_aggregates(self, expr: Expression,
                               members: list[dict],
                               params: Sequence[Any]) -> Expression:
        """Replace aggregate calls with their computed literals."""
        if isinstance(expr, FunctionCall):
            if expr.is_aggregate:
                return Literal(self._compute_aggregate(expr, members,
                                                       params))
            args = tuple(self._substitute_aggregates(a, members, params)
                         for a in expr.args)
            return FunctionCall(expr.name, args, expr.distinct)
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op,
                self._substitute_aggregates(expr.left, members, params),
                self._substitute_aggregates(expr.right, members, params))
        from ..sql.ast import UnaryOp
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self._substitute_aggregates(
                expr.operand, members, params))
        return expr

    def _compute_aggregate(self, call: FunctionCall, namespaces: list[dict],
                           params: Sequence[Any]) -> Any:
        if call.name == "COUNT" and (not call.args
                                     or isinstance(call.args[0], Star)):
            return len(namespaces)
        arg = call.args[0]
        samples = []
        for namespace in namespaces:
            ctx = EvalContext(row=namespace, params=params,
                              functions=self.functions)
            value = evaluate(arg, ctx)
            if value is not None:
                samples.append(value)
        if call.distinct:
            samples = list(dict.fromkeys(samples))
        if call.name == "COUNT":
            return len(samples)
        if not samples:
            return None
        if call.name == "SUM":
            return sum(samples)
        if call.name == "AVG":
            return sum(samples) / len(samples)
        if call.name == "MIN":
            return min(samples)
        if call.name == "MAX":
            return max(samples)
        raise DatabaseError(f"unknown aggregate {call.name!r}")

    def _order(self, namespaces: list[dict],
               order_by, params: Sequence[Any]) -> list[dict]:
        # Stable sorts applied in reverse clause order give multi-key
        # ordering with per-key ASC/DESC.
        ordered = namespaces
        for item in reversed(order_by):
            ordered = sorted(
                ordered,
                key=lambda ns, e=item.expression: _sort_key(
                    evaluate(e, EvalContext(row=ns, params=params,
                                            functions=self.functions))),
                reverse=item.descending)
        return ordered

    def _project(self, items, namespaces, aliases, params
                 ) -> tuple[list[str], list[tuple]]:
        columns: list[str] = []
        extractors: list[Callable[[dict], Any]] = []
        for item in items:
            expr = item.expression
            if isinstance(expr, Star):
                for alias, table in aliases:
                    if expr.table is not None and expr.table != alias:
                        continue
                    for column in table.schema.column_names:
                        columns.append(column)
                        extractors.append(
                            lambda ns, k=f"{alias}.{column}": ns[k])
                continue
            columns.append(_item_label(item, params))
            extractors.append(
                lambda ns, e=expr: evaluate(
                    e, EvalContext(row=ns, params=params,
                                   functions=self.functions)))
        rows = [tuple(fn(ns) for fn in extractors) for ns in namespaces]
        return columns, rows

    # ------------------------------------------------------------ planning
    def _plan_where(self, table: Table, where: Optional[Expression],
                    params: Sequence[Any]
                    ) -> tuple[Iterable[Any], int, bool]:
        """Choose an access path; returns (pks, rows_examined, used_index).

        The returned pks are *candidates*: the caller still applies the
        full WHERE as a residual filter.
        """
        if where is None:
            return list(table.rows), len(table), False
        ctx = EvalContext(params=params, functions=self.functions)
        for conjunct in _conjuncts(where):
            probe = _equality_probe(conjunct)
            if probe is None:
                continue
            column, value_expr = probe
            if not table.schema.has_column(column):
                continue
            value = evaluate(value_expr, ctx)
            if column == table.primary_key_column:
                pk_value = table.schema.primary_key.sql_type.coerce(
                    value, column)
                found = pk_value in table.rows
                return ([pk_value] if found else []), 1, True
            index = table.index_on(column)
            if index is not None and len(index.columns) == 1:
                # lookup() returns a frozenset; sort so unordered
                # SELECTs return rows in pk order, not hash order.
                pks = sorted(index.lookup((value,)))
                return pks, len(pks), True
        # Range probe on a single-column index.
        for conjunct in _conjuncts(where):
            probe = _range_probe(conjunct)
            if probe is None:
                continue
            column, low_expr, high_expr, incl_low, incl_high = probe
            index = table.index_on(column)
            if index is None or len(index.columns) != 1:
                continue
            low = (evaluate(low_expr, ctx),) if low_expr is not None else None
            high = (evaluate(high_expr, ctx),) \
                if high_expr is not None else None
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
def _short_name(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def _namespace(table: Table, alias: Optional[str],
               row: dict[str, Any]) -> dict[str, Any]:
    prefix = alias or _short_name(table.name)
    return {f"{prefix}.{column}": value for column, value in row.items()}


def _truthy(value: Any) -> bool:
    return value is not None and bool(value)


def _sort_key(value: Any) -> tuple:
    """Total order over SQL values: NULLs first, then numbers, then text."""
    if value is None:
        return (0, 0.0, "")
    if isinstance(value, (bool, int, float)):
        return (1, float(value), "")
    return (2, 0.0, str(value))


def _item_label(item: SelectItem, params: Sequence[Any]) -> str:
    if item.alias:
        return item.alias
    expr = item.expression
    if isinstance(expr, ColumnRef):
        return expr.name
    return render_expression(expr, params).lower()


def _conjuncts(expr: Expression) -> list[Expression]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _is_constant(expr: Expression) -> bool:
    if isinstance(expr, (Literal, ParamRef)):
        return True
    if isinstance(expr, BinaryOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    return False


def _equality_probe(expr: Expression
                    ) -> Optional[tuple[str, Expression]]:
    """Match ``col = const`` / ``const = col``; return (column, value)."""
    if not isinstance(expr, BinaryOp) or expr.op != "=":
        return None
    left, right = expr.left, expr.right
    if isinstance(left, ColumnRef) and _is_constant(right):
        return left.name, right
    if isinstance(right, ColumnRef) and _is_constant(left):
        return right.name, left
    return None


def _range_probe(expr: Expression):
    """Match BETWEEN / single comparison on a column vs constants.

    Returns (column, low, high, include_low, include_high) or None.
    """
    if isinstance(expr, BetweenOp) and not expr.negated \
            and isinstance(expr.operand, ColumnRef) \
            and _is_constant(expr.low) and _is_constant(expr.high):
        return expr.operand.name, expr.low, expr.high, True, True
    if isinstance(expr, BinaryOp) and expr.op in ("<", ">", "<=", ">="):
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and _is_constant(right):
            column, value, op = left.name, right, expr.op
        elif isinstance(right, ColumnRef) and _is_constant(left):
            column, value = right.name, left
            op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[expr.op]
        else:
            return None
        if op == "<":
            return column, None, value, True, False
        if op == "<=":
            return column, None, value, True, True
        if op == ">":
            return column, value, None, False, True
        return column, value, None, True, True
    return None


def _join_probe(condition: Expression, right: Table, right_alias: str
                ) -> Optional[tuple[Expression, str]]:
    """Match ``left_expr = right_alias.col`` where col is pk/indexed.

    Returns (left_expr, right_column) so the executor can evaluate the
    left side per outer row and index-probe the right table.
    """
    for conjunct in _conjuncts(condition):
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            continue
        for own, other in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            if isinstance(own, ColumnRef) and own.table == right_alias:
                column = own.name
                if not right.schema.has_column(column):
                    continue
                if _mentions_alias(other, right_alias):
                    continue
                if column == right.primary_key_column \
                        or right.index_on(column) is not None:
                    return other, column
    return None


def _mentions_alias(expr: Expression, alias: str) -> bool:
    if isinstance(expr, ColumnRef):
        return expr.table == alias
    if isinstance(expr, BinaryOp):
        return _mentions_alias(expr.left, alias) \
            or _mentions_alias(expr.right, alias)
    if isinstance(expr, FunctionCall):
        return any(_mentions_alias(a, alias) for a in expr.args)
    return False


def _lookup_by_column(table: Table, column: str, value: Any) -> list:
    if column == table.primary_key_column:
        return [value] if value in table.rows else []
    index = table.index_on(column)
    if index is not None and len(index.columns) == 1:
        return list(index.lookup((value,)))
    return list(table.rows)


def _freeze(value: Any):
    """Hashable form of a group key component."""
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def _contains_aggregate(expr: Expression) -> bool:
    if isinstance(expr, FunctionCall):
        if expr.is_aggregate:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, BinaryOp):
        return _contains_aggregate(expr.left) \
            or _contains_aggregate(expr.right)
    return False

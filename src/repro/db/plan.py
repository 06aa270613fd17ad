"""Statement plans: what is decided about a statement before any row.

A :class:`Plan` is a statement's expressions compiled to closures
(:mod:`repro.sql.expressions`) plus the *structural* half of access-path
selection: which WHERE / ON conjuncts could drive a primary-key, index
or range probe.  The other half — does the column exist, is it the key,
is there an index right now — is the engine's, per execution, so DDL
between two runs of one cached statement changes the path and nothing
else.

A plan is built once per (statement, table schemas) and parked on the
statement's ``plan`` slot: it lives as long as the AST the plan cache
hands out, and master, slaves and proxy share it.  It holds schemas and
closures, never an engine, a table or the SQL functions — a cached plan
must not pin a finished simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Optional, Union

from ..sql.ast import (BetweenOp, BinaryOp, ColumnRef, DeleteStatement,
                       Expression, FunctionCall, InsertStatement, Literal,
                       ParamRef, SelectItem, SelectStatement, Star,
                       Statement, UpdateStatement, walk)
from ..sql.expressions import (Compiled, column_slot, compile_expression,
                               has_aggregate)
from ..sql.render import render_expression
from .schema import TableSchema
from .table import Table

__all__ = ["Plan", "plan_for"]


@dataclass(slots=True)
class Plan:
    """One statement compiled for one tuple of table schemas."""

    schemas: tuple[TableSchema, ...]
    #: Probe candidates from the WHERE conjuncts: ``([(column, value)],
    #: [(column, low, high, include_low, include_high)])``.
    probes: tuple[tuple, tuple] = ((), ())
    where: Optional[Compiled] = None
    #: The WHERE is one conjunct that a probe, when taken with non-NULL
    #: values, enforces exactly: the probe's rows need no re-check.
    where_is_probe: bool = False
    #: Per JOIN: ``([(right column, left-side value)], condition,
    #: exact)``, ``exact`` as ``where_is_probe`` for the ON condition.
    joins: tuple = ()
    #: SELECT: with ``grouped``, ``having``/``items``/``order_by`` take
    #: a group (list of rows) instead of a row.
    grouped: bool = False
    group_by: tuple[Compiled, ...] = ()
    having: Optional[Compiled] = None
    items: tuple[Compiled, ...] = ()
    #: Column labels; an expression is rendered once params are bound.
    columns: tuple[Union[str, Expression], ...] = ()
    #: ``columns`` when every label is a plain name, else None.
    labels: Optional[tuple[str, ...]] = None
    #: When every item reads a plain column of one table (ungrouped):
    #: ``(position, itemgetter of those columns, one column only)``.
    reads: Optional[tuple[int, Callable, bool]] = None
    order_by: tuple[tuple[Compiled, bool], ...] = ()
    #: ``(column, descending)`` when the ORDER BY is one column of the
    #: ungrouped base table: a range scan on its index arrives sorted.
    order_column: Optional[tuple[str, bool]] = None
    #: The statement calls no scalar function: rows the answer does
    #: not need may go unread (RAND() draws and clock reads show).
    pure: bool = True
    #: The select list is ``COUNT(*)`` alone over one implicit group
    #: that nothing else (HAVING, ORDER BY) reads.
    count_star: bool = False
    #: UPDATE: ``(column, value)``; INSERT: one tuple of values per row.
    assignments: tuple[tuple[str, Compiled], ...] = ()
    rows: tuple[tuple[Compiled, ...], ...] = ()


def plan_for(statement: Statement, tables: Iterable[Table] = ()) -> Plan:
    """The plan of ``statement`` over ``tables`` (FROM/JOIN order)."""
    schemas = tuple([table.schema for table in tables])
    plan = getattr(statement, "plan", None)
    if plan is None or plan.schemas != schemas:
        plan = _BUILDERS[type(statement)](statement, schemas)
        object.__setattr__(statement, "plan", plan)
    return plan


def _short_name(qualified: str) -> str:
    return qualified.rsplit(".", 1)[-1]


def _select(statement: SelectStatement, schemas: tuple) -> Plan:
    aliases = [clause.alias or _short_name(clause.table)
               for clause in (statement, *statement.joins)
               if clause.table is not None]
    layout = tuple((alias, tuple(schema.column_names))
                   for alias, schema in zip(aliases, schemas))
    clauses = [item.expression for item in statement.items] \
        + [order.expression for order in statement.order_by]
    if statement.having is not None:
        clauses.append(statement.having)
    grouped = bool(statement.group_by) or any(map(has_aggregate, clauses))
    columns, items, slots = [], [], []
    for item in statement.items:
        star = item.expression
        if isinstance(star, Star) and layout and not grouped:
            for position, (alias, names) in enumerate(layout):
                if star.table in (None, alias):
                    columns.extend(names)
                    items.extend(compile_expression(ColumnRef(name, alias),
                                                    layout)
                                 for name in names)
                    slots.extend((position, name) for name in names)
        else:
            columns.append(_label(item))
            items.append(compile_expression(item.expression, layout, grouped))
            slots.append(None if grouped
                         else column_slot(item.expression, layout))
    alias = aliases[0] if aliases else ""
    joined = bool(statement.joins)
    order_column = None
    if len(statement.order_by) == 1 and not grouped:
        (order,) = statement.order_by
        if isinstance(order.expression, ColumnRef) \
                and order.expression.table in (None, alias) \
                and _resolvable(order.expression, joined):
            order_column = (order.expression.name, order.descending)
    expressions = clauses + [statement.where] + list(statement.group_by) \
        + [join.condition for join in statement.joins]
    count = statement.items[0].expression if len(statement.items) == 1 \
        else None
    probes = _probes(statement.where, alias)
    return Plan(
        schemas, probes, where=_optional(statement.where, layout),
        where_is_probe=_probe_conjunct(statement.where, probes, joined),
        joins=tuple(_join(join.condition, alias, layout[:position + 1])
                    for position, (join, alias)
                    in enumerate(zip(statement.joins, aliases[1:]), 1)),
        grouped=grouped,
        group_by=tuple(compile_expression(expr, layout)
                       for expr in statement.group_by),
        having=_optional(statement.having, layout, grouped),
        items=tuple(items), columns=tuple(columns),
        labels=tuple(columns) if all(isinstance(label, str)
                                     for label in columns) else None,
        reads=_reads(slots),
        order_by=tuple((compile_expression(order.expression, layout, grouped),
                        order.descending) for order in statement.order_by),
        order_column=order_column,
        pure=not any(isinstance(node, FunctionCall) and not node.is_aggregate
                     for expr in expressions if expr is not None
                     for node in walk(expr)),
        count_star=isinstance(count, FunctionCall) and count.name == "COUNT"
        and not count.distinct
        and (not count.args or isinstance(count.args[0], Star))
        and not statement.group_by and statement.having is None
        and not statement.order_by)


def _reads(slots: list) -> Optional[tuple[int, Callable, bool]]:
    """``Plan.reads`` for items reading ``slots`` (None: not a column)."""
    if not slots or None in slots \
            or len({position for position, _column in slots}) != 1:
        return None
    return (slots[0][0], itemgetter(*[column for _position, column in slots]),
            len(slots) == 1)


def _write(statement: Union[UpdateStatement, DeleteStatement],
           schemas: tuple) -> Plan:
    alias = _short_name(statement.table)
    layout = ((alias, tuple(schemas[0].column_names)),)
    probes = _probes(statement.where, alias)
    return Plan(
        schemas, probes, where=_optional(statement.where, layout),
        where_is_probe=_probe_conjunct(statement.where, probes),
        assignments=tuple(
            (column, compile_expression(value, layout))
            for column, value in getattr(statement, "assignments", ())))


def _insert(statement: InsertStatement, schemas: tuple) -> Plan:
    return Plan(schemas, rows=tuple(
        tuple(compile_expression(value) for value in row)
        for row in statement.rows))


_BUILDERS = {SelectStatement: _select, UpdateStatement: _write,
             DeleteStatement: _write, InsertStatement: _insert}


def _optional(expr: Optional[Expression], layout: tuple,
              grouped: bool = False) -> Optional[Compiled]:
    return None if expr is None \
        else compile_expression(expr, layout, grouped)


def _label(item: SelectItem) -> Union[str, Expression]:
    if item.alias:
        return item.alias
    expr = item.expression
    if isinstance(expr, ColumnRef):
        return expr.name
    if any(isinstance(node, ParamRef) for node in walk(expr)):
        return expr
    return render_expression(expr).lower()


def _conjuncts(expr: Optional[Expression]) -> list[Expression]:
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _is_constant(expr: Expression) -> bool:
    if isinstance(expr, (Literal, ParamRef)):
        return True
    if isinstance(expr, BinaryOp):
        return _is_constant(expr.left) and _is_constant(expr.right)
    return False


def _probes(where: Optional[Expression], alias: str) -> tuple[tuple, tuple]:
    """``(equalities, ranges)``: per WHERE conjunct, the column of the
    base table (``alias``) that a constant could be looked up in
    (``col = const``) or bound on (BETWEEN / a single comparison)."""
    equalities, ranges = [], []
    for conjunct in _conjuncts(where):
        if isinstance(conjunct, BetweenOp) and not conjunct.negated:
            op, column = "BETWEEN", conjunct.operand
            values = (conjunct.low, conjunct.high)
        elif isinstance(conjunct, BinaryOp):
            op, column, values = conjunct.op, conjunct.left, (conjunct.right,)
            if isinstance(conjunct.right, ColumnRef):
                column, values = conjunct.right, (conjunct.left,)
                op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)
        else:
            continue
        if not (isinstance(column, ColumnRef)
                and column.table in (None, alias)
                and all(map(_is_constant, values))):
            continue
        values = map(compile_expression, values)
        if op == "=":
            equalities.append((column.name, *values))
        elif op == "BETWEEN":
            ranges.append((column.name, *values, True, True))
        elif op in ("<", "<="):
            ranges.append((column.name, None, *values, True, op == "<="))
        elif op in (">", ">="):
            ranges.append((column.name, *values, None, op == ">=", True))
    return tuple(equalities), tuple(ranges)


def _resolvable(expr: Expression, joined: bool) -> bool:
    """Every column of ``expr`` resolves the same way whatever the
    other tables hold: it is qualified, or no other table exists (an
    unqualified name may be ambiguous, and only evaluating says so)."""
    return not joined or all(node.table is not None for node in walk(expr)
                             if isinstance(node, ColumnRef))


def _probe_conjunct(where: Optional[Expression], probes: tuple,
                    joined: bool = False) -> bool:
    """The WHERE is one conjunct, and it gave ``probes`` their probe
    (see ``Plan.where_is_probe``)."""
    return any(probes) and len(_conjuncts(where)) == 1 \
        and _resolvable(where, joined)


def _join(condition: Expression, alias: str, layout: tuple) -> tuple:
    """Plan one JOIN whose right table is the last of ``layout``:
    ``left_expr = alias.col`` conjuncts are probe candidates, the left
    side evaluated per outer row against the tables before it."""
    probes = []
    conjuncts = _conjuncts(condition)
    for conjunct in conjuncts:
        if not isinstance(conjunct, BinaryOp) or conjunct.op != "=":
            continue
        for own, other in ((conjunct.left, conjunct.right),
                           (conjunct.right, conjunct.left)):
            if isinstance(own, ColumnRef) and own.table == alias \
                    and not any(isinstance(node, ColumnRef)
                                and node.table == alias
                                for node in walk(other)):
                probes.append(
                    (own.name, compile_expression(other, layout[:-1])))
    exact = len(conjuncts) == 1 and len(probes) == 1 \
        and _resolvable(condition, True)
    return tuple(probes), compile_expression(condition, layout), exact

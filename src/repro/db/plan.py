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
from typing import Iterable, Optional, Union

from ..sql.ast import (BetweenOp, BinaryOp, ColumnRef, DeleteStatement,
                       Expression, InsertStatement, Literal, ParamRef,
                       SelectItem, SelectStatement, Star, Statement,
                       UpdateStatement, walk)
from ..sql.expressions import Compiled, compile_expression, has_aggregate
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
    #: Per JOIN: ``([(right column, left-side value)], condition)``.
    joins: tuple = ()
    #: SELECT: with ``grouped``, ``having``/``items``/``order_by`` take
    #: a group (list of rows) instead of a row.
    grouped: bool = False
    group_by: tuple[Compiled, ...] = ()
    having: Optional[Compiled] = None
    items: tuple[Compiled, ...] = ()
    #: Column labels; an expression is rendered once params are bound.
    columns: tuple[Union[str, Expression], ...] = ()
    order_by: tuple[tuple[Compiled, bool], ...] = ()
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
    columns, items = [], []
    for item in statement.items:
        star = item.expression
        if isinstance(star, Star) and layout and not grouped:
            for alias, names in layout:
                if star.table in (None, alias):
                    columns.extend(names)
                    items.extend(compile_expression(ColumnRef(name, alias),
                                                    layout)
                                 for name in names)
        else:
            columns.append(_label(item))
            items.append(compile_expression(item.expression, layout, grouped))
    return Plan(
        schemas, _probes(statement.where, aliases[0] if aliases else ""),
        where=_optional(statement.where, layout),
        joins=tuple(_join(join.condition, alias, layout[:position + 1])
                    for position, (join, alias)
                    in enumerate(zip(statement.joins, aliases[1:]), 1)),
        grouped=grouped,
        group_by=tuple(compile_expression(expr, layout)
                       for expr in statement.group_by),
        having=_optional(statement.having, layout, grouped),
        items=tuple(items), columns=tuple(columns),
        order_by=tuple((compile_expression(order.expression, layout, grouped),
                        order.descending) for order in statement.order_by))


def _write(statement: Union[UpdateStatement, DeleteStatement],
           schemas: tuple) -> Plan:
    alias = _short_name(statement.table)
    layout = ((alias, tuple(schemas[0].column_names)),)
    return Plan(
        schemas, _probes(statement.where, alias),
        where=_optional(statement.where, layout),
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


def _join(condition: Expression, alias: str, layout: tuple) -> tuple:
    """Plan one JOIN whose right table is the last of ``layout``:
    ``left_expr = alias.col`` conjuncts are probe candidates, the left
    side evaluated per outer row against the tables before it."""
    probes = []
    for conjunct in _conjuncts(condition):
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
    return tuple(probes), compile_expression(condition, layout)

"""Abstract syntax tree for the SQL dialect.

All nodes are frozen dataclasses; each statement node knows whether it
reads or writes (``is_write``), which is what the read/write-splitting
proxy keys its routing on.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Optional

__all__ = [
    "Expression", "walk", "Literal", "ColumnRef", "ParamRef", "BinaryOp", "UnaryOp",
    "FunctionCall", "InList", "BetweenOp", "LikeOp", "IsNull", "Star",
    "ColumnDef", "OrderItem", "JoinClause", "SelectItem",
    "Statement", "SelectStatement", "InsertStatement", "UpdateStatement",
    "DeleteStatement", "CreateTableStatement", "CreateIndexStatement",
    "DropTableStatement", "CreateDatabaseStatement", "UseStatement",
    "BeginStatement", "CommitStatement", "RollbackStatement",
]


# --------------------------------------------------------------- expressions
class Expression:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    value: object  # int | float | str | bool | None


@dataclass(frozen=True, slots=True)
class ColumnRef(Expression):
    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True, slots=True)
class ParamRef(Expression):
    """A ``?`` placeholder, bound at execution time."""

    index: int


@dataclass(frozen=True, slots=True)
class BinaryOp(Expression):
    op: str  # '=', '<', '>', '<=', '>=', '!=', 'AND', 'OR', '+', '-', '*', '/', '%'
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class UnaryOp(Expression):
    op: str  # 'NOT', '-'
    operand: Expression


@dataclass(frozen=True, slots=True)
class FunctionCall(Expression):
    name: str  # uppercased
    args: tuple[Expression, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in ("COUNT", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True, slots=True)
class InList(Expression):
    operand: Expression
    options: tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True, slots=True)
class BetweenOp(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True, slots=True)
class LikeOp(Expression):
    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True, slots=True)
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass(frozen=True, slots=True)
class Star(Expression):
    """``*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


def walk(expr: Expression) -> Iterator[Expression]:
    """Yield ``expr`` and every expression nested inside it."""
    yield expr
    for spec in fields(expr):
        child = getattr(expr, spec.name)
        for nested in child if isinstance(child, tuple) else (child,):
            if isinstance(nested, Expression):
                yield from walk(nested)


# ------------------------------------------------------------------ clauses
@dataclass(frozen=True, slots=True)
class ColumnDef:
    name: str
    type_name: str           # 'INTEGER', 'VARCHAR', ...
    type_arg: Optional[int]  # e.g. VARCHAR(64)
    primary_key: bool = False
    auto_increment: bool = False
    nullable: bool = True
    default: Optional[Literal] = None


@dataclass(frozen=True, slots=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True, slots=True)
class JoinClause:
    table: str
    alias: Optional[str]
    condition: Expression


@dataclass(frozen=True, slots=True)
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


# --------------------------------------------------------------- statements
class Statement:
    """Base class for statement nodes.  ``plan`` is a cache slot, not a
    field: the executor parks what it compiled from the statement there
    (``object.__setattr__``; the fields stay frozen), so a plan lives as
    long as its AST and is shared by everyone who shares the AST."""

    __slots__ = ("plan",)
    is_write = False
    is_transaction_control = False


@dataclass(frozen=True, slots=True)
class SelectStatement(Statement):
    items: tuple[SelectItem, ...]
    table: Optional[str] = None
    alias: Optional[str] = None
    joins: tuple[JoinClause, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True, slots=True)
class InsertStatement(Statement):
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]
    is_write = True


@dataclass(frozen=True, slots=True)
class UpdateStatement(Statement):
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None
    is_write = True


@dataclass(frozen=True, slots=True)
class DeleteStatement(Statement):
    table: str
    where: Optional[Expression] = None
    is_write = True


@dataclass(frozen=True, slots=True)
class CreateTableStatement(Statement):
    table: str
    columns: tuple[ColumnDef, ...]
    if_not_exists: bool = False
    is_write = True


@dataclass(frozen=True, slots=True)
class CreateIndexStatement(Statement):
    name: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False
    is_write = True


@dataclass(frozen=True, slots=True)
class DropTableStatement(Statement):
    table: str
    if_exists: bool = False
    is_write = True


@dataclass(frozen=True, slots=True)
class CreateDatabaseStatement(Statement):
    name: str
    if_not_exists: bool = False
    is_write = True


@dataclass(frozen=True, slots=True)
class UseStatement(Statement):
    name: str


@dataclass(frozen=True, slots=True)
class BeginStatement(Statement):
    is_transaction_control = True


@dataclass(frozen=True, slots=True)
class CommitStatement(Statement):
    is_transaction_control = True


@dataclass(frozen=True, slots=True)
class RollbackStatement(Statement):
    is_transaction_control = True

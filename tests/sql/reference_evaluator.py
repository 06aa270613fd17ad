"""The reference evaluator: a per-row walk over the AST.

This was ``repro.sql.expressions`` until expressions were compiled to
closures; it stays here, unchanged, as the oracle of
``test_compiled_differential.py``.  Expressions are evaluated against
an :class:`EvalContext` that provides the current row's column values
(a flat ``alias.column`` mapping), the bound parameter list and the
scalar-function registry.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.sql import EvaluationError
from repro.sql.ast import (BetweenOp, BinaryOp, ColumnRef, Expression,
                           FunctionCall, InList, IsNull, LikeOp, Literal,
                           ParamRef, Star, UnaryOp)

__all__ = ["EvalContext", "evaluate", "like_match"]


class EvalContext:
    """Everything an expression needs to evaluate."""

    __slots__ = ("row", "params", "functions")

    def __init__(self,
                 row: Optional[Mapping[str, Any]] = None,
                 params: Optional[Sequence[Any]] = None,
                 functions: Optional[Mapping[str, Callable]] = None):
        self.row = row or {}
        self.params = params or ()
        self.functions = functions or {}

    def column(self, ref: ColumnRef) -> Any:
        key = ref.qualified
        if key in self.row:
            return self.row[key]
        if ref.table is None:
            # Try any qualified match (unambiguous unqualified access).
            matches = [v for k, v in self.row.items()
                       if k.endswith("." + ref.name)]
            if len(matches) == 1:
                return matches[0]
            if len(matches) > 1:
                raise EvaluationError(f"ambiguous column {ref.name!r}")
        raise EvaluationError(f"unknown column {ref.qualified!r}")

    def param(self, index: int) -> Any:
        try:
            return self.params[index]
        except IndexError:
            raise EvaluationError(
                f"statement references parameter {index} but only "
                f"{len(self.params)} were bound") from None

    def call(self, name: str, args: list[Any]) -> Any:
        fn = self.functions.get(name)
        if fn is None:
            raise EvaluationError(f"unknown function {name!r}")
        return fn(*args)


def evaluate(expr: Expression, ctx: EvalContext) -> Any:
    """Evaluate ``expr`` in ``ctx`` (SQL three-valued logic for NULLs)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return ctx.column(expr)
    if isinstance(expr, ParamRef):
        return ctx.param(expr.index)
    if isinstance(expr, BinaryOp):
        return _binary(expr, ctx)
    if isinstance(expr, UnaryOp):
        return _unary(expr, ctx)
    if isinstance(expr, FunctionCall):
        if expr.is_aggregate:
            raise EvaluationError(
                f"aggregate {expr.name} outside a select list")
        args = [evaluate(a, ctx) for a in expr.args]
        return ctx.call(expr.name, args)
    if isinstance(expr, InList):
        value = evaluate(expr.operand, ctx)
        if value is None:
            return None
        found = any(evaluate(option, ctx) == value
                    for option in expr.options)
        return (not found) if expr.negated else found
    if isinstance(expr, BetweenOp):
        value = evaluate(expr.operand, ctx)
        low = evaluate(expr.low, ctx)
        high = evaluate(expr.high, ctx)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return (not result) if expr.negated else result
    if isinstance(expr, LikeOp):
        value = evaluate(expr.operand, ctx)
        pattern = evaluate(expr.pattern, ctx)
        if value is None or pattern is None:
            return None
        result = like_match(str(value), str(pattern))
        return (not result) if expr.negated else result
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, ctx)
        is_null = value is None
        return (not is_null) if expr.negated else is_null
    if isinstance(expr, Star):
        raise EvaluationError("'*' is only valid in a select list")
    raise EvaluationError(f"cannot evaluate {type(expr).__name__}")


def _binary(expr: BinaryOp, ctx: EvalContext) -> Any:
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, ctx)
        if left is False or (left is not None and not left):
            return False
        right = evaluate(expr.right, ctx)
        if right is False or (right is not None and not right):
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        left = evaluate(expr.left, ctx)
        if left not in (None, False, 0):
            return True
        right = evaluate(expr.right, ctx)
        if right not in (None, False, 0):
            return True
        if left is None or right is None:
            return None
        return False
    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None  # MySQL semantics: division by zero yields NULL
        return left / right
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise EvaluationError(f"unknown operator {op!r}")


def _unary(expr: UnaryOp, ctx: EvalContext) -> Any:
    value = evaluate(expr.operand, ctx)
    if expr.op == "NOT":
        if value is None:
            return None
        return not value
    if expr.op == "-":
        if value is None:
            return None
        return -value
    raise EvaluationError(f"unknown unary operator {expr.op!r}")


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` matches one character."""
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    regex = "".join(parts)
    return re.fullmatch(regex, value, flags=re.DOTALL | re.IGNORECASE) \
        is not None

"""Expression compilation.

An expression is compiled once, against a column *layout*, into a
closure ``fn(row, params, functions)`` that is then called per row.  A
row is a tuple of stored row mappings, one per table of the statement
in FROM/JOIN order; the layout gives each position's alias and columns,
so a column reference is resolved to one ``row[position][column]`` at
compile time.  The bound parameters and the server's scalar functions
(which read server state: ``USEC_NOW()`` is the instance's clock) are
call arguments, never captured — a compiled expression can be cached
and shared without pinning a server.

SQL three-valued logic throughout.  An unknown or ambiguous column, an
unbound parameter, an unknown function or a misplaced aggregate raises
:class:`EvaluationError` only when that sub-expression is evaluated:
``FALSE AND nosuch`` is ``FALSE``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .ast import (BetweenOp, BinaryOp, ColumnRef, Expression, FunctionCall,
                  InList, IsNull, LikeOp, Literal, ParamRef, Star, UnaryOp,
                  walk)

__all__ = ["Compiled", "EvalContext", "EvaluationError", "Layout",
           "column_slot", "compile_expression", "evaluate", "has_aggregate",
           "like_match"]

#: ``(alias, column names)`` per row position.
Layout = Sequence[tuple[Optional[str], Sequence[str]]]
Compiled = Callable[[Sequence[Mapping[str, Any]], Sequence[Any],
                     Mapping[str, Callable]], Any]


class EvaluationError(ValueError):
    """Raised when an expression cannot be evaluated."""


@dataclass(slots=True)
class EvalContext:
    """The arguments of a one-off :func:`evaluate`: a flat row mapping
    (keys are the spellings references may use, ``t.a`` or ``a``), the
    bound parameters and the scalar functions."""

    row: Mapping[str, Any] = field(default_factory=dict)
    params: Sequence[Any] = ()
    functions: Mapping[str, Callable] = field(default_factory=dict)


def evaluate(expr: Expression, ctx: EvalContext) -> Any:
    """Compile ``expr`` against ``ctx.row``'s keys and call it once."""
    return compile_expression(expr, ((None, tuple(ctx.row)),))(
        (ctx.row,), ctx.params, ctx.functions)


def has_aggregate(expr: Expression) -> bool:
    return any(isinstance(node, FunctionCall) and node.is_aggregate
               for node in walk(expr))


def compile_expression(expr: Expression, layout: Layout = (),
                       grouped: bool = False) -> Compiled:
    """Compile ``expr`` for rows shaped like ``layout``.

    With ``grouped`` the closure takes a *group* — the list of member
    rows — where a row goes: aggregate calls fold over the members and
    everything else reads the group's first row (MySQL's permissive
    pre-ONLY_FULL_GROUP_BY semantics).
    """
    return _compile(expr, _names(layout), grouped)


def column_slot(expr: Expression,
                layout: Layout) -> Optional[tuple[int, str]]:
    """``(position, column)`` that ``expr`` reads from a row shaped like
    ``layout`` when it is a column reference that resolves, else None."""
    if not isinstance(expr, ColumnRef):
        return None
    slot = _slot(expr, _names(layout))
    return slot if isinstance(slot, tuple) else None


def _names(layout: Layout) -> dict:
    return {f"{alias}.{column}" if alias else column: (position, column)
            for position, (alias, columns) in enumerate(layout)
            for column in columns}


def _compile(expr: Expression, names: dict, grouped: bool) -> Compiled:
    if grouped and not has_aggregate(expr):
        per_row = _compile(expr, names, False)
        return lambda members, params, functions: per_row(
            members[0] if members else (), params, functions)

    def sub(child: Expression) -> Compiled:
        return _compile(child, names, grouped)

    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, params, functions: value
    if isinstance(expr, ColumnRef):
        return _column(expr, names)
    if isinstance(expr, ParamRef):
        return _param(expr.index)
    if isinstance(expr, BinaryOp):
        return _binary(expr.op, sub(expr.left), sub(expr.right))
    if isinstance(expr, UnaryOp):
        return _unary(expr.op, sub(expr.operand))
    if isinstance(expr, FunctionCall):
        if not expr.is_aggregate:
            return _call(expr.name, [sub(arg) for arg in expr.args])
        if grouped:
            return _aggregate(expr, names)
        return _fails(f"aggregate {expr.name} outside a select list")
    if isinstance(expr, InList):
        return _in_list(sub(expr.operand), [sub(o) for o in expr.options],
                        expr.negated)
    if isinstance(expr, BetweenOp):
        return _between(sub(expr.operand), sub(expr.low), sub(expr.high),
                        expr.negated)
    if isinstance(expr, LikeOp):
        return _like(sub(expr.operand), sub(expr.pattern), expr.negated)
    if isinstance(expr, IsNull):
        operand, negated = sub(expr.operand), expr.negated
        return lambda row, params, functions: \
            (operand(row, params, functions) is None) != negated
    if isinstance(expr, Star):
        return _fails("'*' is only valid in a select list")
    return _fails(f"cannot evaluate {type(expr).__name__}")


def _fails(message: str) -> Compiled:
    def fail(row, params, functions):
        raise EvaluationError(message)
    return fail


def _slot(ref: ColumnRef, names: dict) -> Union[tuple[int, str], str]:
    """``(position, column)`` of ``ref``, or why it has none."""
    slot = names.get(ref.qualified)
    if slot is None and ref.table is None:
        # Unqualified access: fine while exactly one table has it.
        matches = [found for name, found in names.items()
                   if name.endswith("." + ref.name)]
        if len(matches) > 1:
            return f"ambiguous column {ref.name!r}"
        slot = matches[0] if matches else None
    return f"unknown column {ref.qualified!r}" if slot is None else slot


def _column(ref: ColumnRef, names: dict) -> Compiled:
    slot = _slot(ref, names)
    if isinstance(slot, str):
        return _fails(slot)
    message = f"unknown column {ref.qualified!r}"
    position, column = slot

    def read(row, params, functions):
        try:
            return row[position][column]
        except LookupError:  # the first row of an empty group
            raise EvaluationError(message) from None
    return read


def _param(index: int) -> Compiled:
    def param(row, params, functions):
        try:
            return params[index]
        except IndexError:
            raise EvaluationError(
                f"statement references parameter {index} but only "
                f"{len(params)} were bound") from None
    return param


def _modulo(a, b):
    """MySQL's ``%``: the remainder takes the dividend's sign (it
    truncates toward zero, where Python's floors): ``-7 % 3`` is -1."""
    if b == 0:
        return None
    remainder = a % b
    if remainder and (remainder < 0) != (a < 0):
        remainder -= b   # floored past zero: step back toward it
    return remainder


#: Applied to non-NULL operands; MySQL semantics: division (and
#: modulo) by zero yields NULL.
_OPERATORS = {
    "=": operator.eq, "!=": operator.ne, "<": operator.lt, ">": operator.gt,
    "<=": operator.le, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda a, b: None if b == 0 else a / b,
    "%": _modulo,
}
_NOT_TRUE = (None, False, 0)


def _binary(op: str, left: Compiled, right: Compiled) -> Compiled:
    if op == "AND":
        def conjunction(row, params, functions):
            a = left(row, params, functions)
            if a is not None and not a:
                return False
            b = right(row, params, functions)
            if b is not None and not b:
                return False
            return None if a is None or b is None else True
        return conjunction
    if op == "OR":
        def disjunction(row, params, functions):
            a = left(row, params, functions)
            if a not in _NOT_TRUE:
                return True
            b = right(row, params, functions)
            if b not in _NOT_TRUE:
                return True
            return None if a is None or b is None else False
        return disjunction
    if op not in _OPERATORS:
        return _fails(f"unknown operator {op!r}")
    apply = _OPERATORS[op]

    def binary(row, params, functions):
        a = left(row, params, functions)
        b = right(row, params, functions)
        return None if a is None or b is None else apply(a, b)
    return binary


def _unary(op: str, operand: Compiled) -> Compiled:
    if op not in ("NOT", "-"):
        return _fails(f"unknown unary operator {op!r}")
    apply = operator.not_ if op == "NOT" else operator.neg

    def unary(row, params, functions):
        value = operand(row, params, functions)
        return None if value is None else apply(value)
    return unary


def _call(name: str, args: list[Compiled]) -> Compiled:
    def call(row, params, functions):
        values = [arg(row, params, functions) for arg in args]
        fn = functions.get(name)
        if fn is None:
            raise EvaluationError(f"unknown function {name!r}")
        return fn(*values)
    return call


_FOLDS = {"COUNT": len, "SUM": sum, "MIN": min, "MAX": max,
          "AVG": lambda samples: sum(samples) / len(samples)}


def _aggregate(call: FunctionCall, names: dict) -> Compiled:
    if call.name == "COUNT" and (not call.args
                                 or isinstance(call.args[0], Star)):
        return lambda members, params, functions: len(members)
    arg = _compile(call.args[0], names, False)
    fold, distinct = _FOLDS[call.name], call.distinct

    def aggregate(members, params, functions):
        samples = [value for row in members
                   if (value := arg(row, params, functions)) is not None]
        if distinct:
            samples = list(dict.fromkeys(samples))
        return fold(samples) if samples or fold is len else None
    return aggregate


def _in_list(operand: Compiled, options: list[Compiled],
             negated: bool) -> Compiled:
    def in_list(row, params, functions):
        value = operand(row, params, functions)
        if value is None:
            return None
        unknown = False   # no match, but a NULL option might have been
        for option in options:
            candidate = option(row, params, functions)
            if candidate == value:
                return not negated
            if candidate is None:
                unknown = True
        return None if unknown else negated
    return in_list


def _between(operand: Compiled, low: Compiled, high: Compiled,
             negated: bool) -> Compiled:
    def between(row, params, functions):
        value = operand(row, params, functions)
        lower = low(row, params, functions)
        upper = high(row, params, functions)
        if value is None or lower is None or upper is None:
            return _between_null(value, lower, upper, negated)
        return (lower <= value <= upper) != negated
    return between


def _between_null(value, lower, upper, negated: bool):
    """BETWEEN with a NULL somewhere: ``lower <= value AND value <=
    upper`` in three-valued logic, so a bound the value is already
    outside of decides it (``5 NOT BETWEEN NULL AND 3`` is TRUE)."""
    if value is None:
        return None
    if (lower is not None and not lower <= value) \
            or (upper is not None and not value <= upper):
        return negated
    return None


def _like(operand: Compiled, pattern: Compiled, negated: bool) -> Compiled:
    def like(row, params, functions):
        value = operand(row, params, functions)
        wanted = pattern(row, params, functions)
        if value is None or wanted is None:
            return None
        return like_match(str(value), str(wanted)) != negated
    return like


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    # Once per pattern, not per row; patterns are mostly bound params.
    parts = {"%": ".*", "_": "."}
    return re.compile("".join(parts.get(ch) or re.escape(ch)
                              for ch in pattern),
                      flags=re.DOTALL | re.IGNORECASE)


def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` matches one character."""
    return _like_regex(pattern).fullmatch(value) is not None

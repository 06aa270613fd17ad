"""Compiled expressions ≡ the reference tree-walker.

Generated expressions over every node type, evaluated on rows with
NULLs, missing and ambiguous columns and short parameter lists, must
agree with ``reference_evaluator`` on the value *and* on the type and
message of whatever is raised — both through the flat-mapping
``evaluate`` and through the tuple-of-rows layout the engine uses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import (EvalContext, EvaluationError, compile_expression,
                       evaluate, parse)
from repro.sql.ast import (BetweenOp, BinaryOp, ColumnRef, FunctionCall,
                           InList, IsNull, LikeOp, Literal, ParamRef, Star,
                           UnaryOp)

from . import reference_evaluator as reference

FUNCTIONS = {
    "ABS": lambda v: None if v is None else abs(v),
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
    "CONCAT": lambda *args: "".join(str(a) for a in args),
}

values = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.floats(-4.0, 4.0, allow_nan=False).map(lambda f: round(f, 1)),
    st.sampled_from(["", "a", "ab", "A%", "_b", "x.y"]))

#: ``a`` lives in both tables (ambiguous when unqualified), ``b`` and
#: ``c`` in one each, ``d`` nowhere; ``w`` is no table at all.
TABLES = (("t", ("a", "b")), ("u", ("a", "c")))
columns = st.builds(ColumnRef, st.sampled_from("abcd"),
                    st.sampled_from([None, "t", "u", "w"]))

leaves = st.one_of(values.map(Literal), columns,
                   st.integers(0, 3).map(ParamRef), st.just(Star()))


def _nodes(sub):
    several = st.lists(sub, max_size=3).map(tuple)
    return st.one_of(
        st.builds(BinaryOp,
                  st.sampled_from(["=", "!=", "<", ">", "<=", ">=", "+", "-",
                                   "*", "/", "%", "AND", "OR"]), sub, sub),
        st.builds(UnaryOp, st.sampled_from(["NOT", "-"]), sub),
        st.builds(FunctionCall,
                  st.sampled_from(["ABS", "COALESCE", "CONCAT", "NOSUCH",
                                   "COUNT", "SUM"]), several, st.booleans()),
        st.builds(InList, sub, several, st.booleans()),
        st.builds(BetweenOp, sub, sub, sub, st.booleans()),
        st.builds(LikeOp, sub, sub, st.booleans()),
        st.builds(IsNull, sub, st.booleans()))


expressions = st.recursive(leaves, _nodes, max_leaves=8)

#: One stored row per table; a dropped key is a *missing* column.
table_rows = st.tuples(*(
    st.fixed_dictionaries({}, optional={name: values for name in names})
    for _alias, names in TABLES))


def outcome(thunk):
    try:
        return ("ok", repr(thunk()))
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


@given(expr=expressions, rows=table_rows, params=st.lists(values, max_size=3))
@settings(max_examples=400, deadline=None)
def test_compiled_equals_reference(expr, rows, params):
    flat = {f"{alias}.{name}": value
            for (alias, _names), row in zip(TABLES, rows)
            for name, value in row.items()}
    expected = outcome(lambda: reference.evaluate(
        expr, reference.EvalContext(flat, params, FUNCTIONS)))
    assert outcome(lambda: evaluate(
        expr, EvalContext(flat, params, FUNCTIONS))) == expected
    # The engine's shape: one mapping per table, resolved by layout.
    layout = tuple((alias, tuple(row))
                   for (alias, _names), row in zip(TABLES, rows))
    compiled = compile_expression(expr, layout)
    assert outcome(lambda: compiled(rows, params, FUNCTIONS)) == expected
    # A compiled closure is reusable: same answer the second time.
    assert outcome(lambda: compiled(rows, params, FUNCTIONS)) == expected


@given(expr=expressions, row=st.dictionaries(st.sampled_from("abc"), values))
@settings(max_examples=100, deadline=None)
def test_bare_column_keys_resolve_like_the_reference(expr, row):
    assert outcome(lambda: evaluate(expr, EvalContext(row))) == outcome(
        lambda: reference.evaluate(expr, reference.EvalContext(row)))


@pytest.mark.parametrize("sql, expected", [
    ("FALSE AND nosuch", False),
    ("0 AND NOSUCH()", False),
    ("TRUE OR nosuch", True),
    ("NULL AND FALSE", False),
    ("1 IN (1, nosuch)", True),
    ("NULL IN (nosuch)", None),
])
def test_short_circuits_leave_the_rest_unevaluated(sql, expected):
    expr = parse(f"SELECT {sql}").items[0].expression
    assert evaluate(expr, EvalContext()) is expected
    assert reference.evaluate(expr, reference.EvalContext()) is expected


def test_errors_surface_only_when_reached():
    compiled = compile_expression(
        parse("SELECT a = 1 AND nosuch = 2").items[0].expression,
        (("t", ("a",)),))
    assert compiled(({"a": 0},), (), {}) is False
    with pytest.raises(EvaluationError, match="unknown column 'nosuch'"):
        compiled(({"a": 1},), (), {})

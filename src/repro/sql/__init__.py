"""SQL front end: lexer, parser, AST, expression evaluation, rendering."""

from . import ast
from .expressions import (EvalContext, EvaluationError, compile_expression,
                          evaluate, like_match)
from .lexer import LexerError, tokenize
from .parser import ParseError, parse
from .plancache import PlanCache, fingerprint
from .render import render_expression, render_literal, render_statement

__all__ = [
    "ast",
    "tokenize",
    "LexerError",
    "parse",
    "ParseError",
    "compile_expression",
    "evaluate",
    "EvalContext",
    "EvaluationError",
    "like_match",
    "PlanCache",
    "fingerprint",
    "render_statement",
    "render_expression",
    "render_literal",
]

"""Recursive-descent parser for the SQL dialect."""

from __future__ import annotations

from typing import Optional

from .ast import (BeginStatement, BetweenOp, BinaryOp, ColumnDef, ColumnRef,
                  CommitStatement, CreateDatabaseStatement,
                  CreateIndexStatement, CreateTableStatement,
                  DeleteStatement, DropTableStatement, Expression,
                  FunctionCall, InList, InsertStatement, IsNull, JoinClause,
                  LikeOp, Literal, OrderItem, ParamRef, RollbackStatement,
                  SelectItem, SelectStatement, Star, Statement,
                  UnaryOp, UpdateStatement, UseStatement)
from .lexer import tokenize
from .tokens import Token, TokenType

__all__ = ["ParseError", "parse"]

_TYPE_KEYWORDS = frozenset((
    "INTEGER", "INT", "BIGINT", "FLOAT", "DOUBLE", "VARCHAR", "TEXT",
    "TIMESTAMP", "BOOLEAN", "DATETIME"))

_COMPARISON_OPS = frozenset(("=", "==", "<", ">", "<=", ">=", "!=", "<>"))


class ParseError(ValueError):
    """Raised when the token stream does not form a valid statement."""


def parse(text: str) -> Statement:
    """Parse a single SQL statement."""
    parser = _Parser(tokenize(text))
    statement = parser.statement()
    parser.skip_semicolons()
    parser.expect_eof()
    return statement


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0
        self._param_counter = 0

    # -- token plumbing ------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.type is not TokenType.EOF:
            self.index += 1
        return token

    def at_eof(self) -> bool:
        return self.peek().type is TokenType.EOF

    def check_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.type is TokenType.KEYWORD and token.value in words

    def accept_keyword(self, *words: str) -> Optional[str]:
        if self.check_keyword(*words):
            return self.advance().value
        return None

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise ParseError(f"expected {word}, found {self.peek().value!r}")

    def accept(self, type_: TokenType) -> Optional[Token]:
        if self.peek().type is type_:
            return self.advance()
        return None

    def expect(self, type_: TokenType) -> Token:
        token = self.accept(type_)
        if token is None:
            raise ParseError(
                f"expected {type_.name}, found {self.peek().value!r}")
        return token

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise ParseError(f"unexpected trailing input "
                             f"{self.peek().value!r}")

    def skip_semicolons(self) -> None:
        while self.accept(TokenType.SEMICOLON):
            pass

    def identifier(self) -> str:
        token = self.peek()
        # Allow non-reserved-looking keywords as identifiers where MySQL
        # does (e.g. a column named `timestamp` or `key` is NOT allowed
        # here; keep it strict and simple).
        if token.type is TokenType.IDENTIFIER:
            return self.advance().value
        raise ParseError(f"expected identifier, found {token.value!r}")

    def table_name(self) -> str:
        """A possibly database-qualified name like ``heartbeats.heartbeat``."""
        name = self.identifier()
        if self.accept(TokenType.DOT):
            name = f"{name}.{self.identifier()}"
        return name

    # -- statements --------------------------------------------------------------
    def statement(self) -> Statement:
        if self.check_keyword("SELECT"):
            return self.select_statement()
        if self.check_keyword("INSERT"):
            return self.insert_statement()
        if self.check_keyword("UPDATE"):
            return self.update_statement()
        if self.check_keyword("DELETE"):
            return self.delete_statement()
        if self.check_keyword("CREATE"):
            return self.create_statement()
        if self.check_keyword("DROP"):
            return self.drop_statement()
        if self.check_keyword("USE"):
            self.advance()
            return UseStatement(self.identifier())
        if self.accept_keyword("BEGIN"):
            return BeginStatement()
        if self.accept_keyword("START"):
            self.expect_keyword("TRANSACTION")
            return BeginStatement()
        if self.accept_keyword("COMMIT"):
            return CommitStatement()
        if self.accept_keyword("ROLLBACK"):
            return RollbackStatement()
        raise ParseError(f"cannot parse statement starting with "
                         f"{self.peek().value!r}")

    def select_statement(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT") is not None
        items = self._select_items()
        table = alias = None
        joins: list[JoinClause] = []
        where = None
        order_by: list[OrderItem] = []
        limit = offset = None
        if self.accept_keyword("FROM"):
            table = self.table_name()
            alias = self._optional_alias()
            while self.check_keyword("JOIN", "INNER", "LEFT"):
                joins.append(self._join_clause())
        group_by: list = []
        having = None
        if self.accept_keyword("WHERE"):
            where = self.expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.expression())
            while self.accept(TokenType.COMMA):
                group_by.append(self.expression())
        if self.accept_keyword("HAVING"):
            having = self.expression()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._order_item())
            while self.accept(TokenType.COMMA):
                order_by.append(self._order_item())
        if self.accept_keyword("LIMIT"):
            first = int(self.expect(TokenType.NUMBER).value)
            if self.accept(TokenType.COMMA):
                # MySQL "LIMIT offset, count" form.
                offset, limit = first, int(self.expect(TokenType.NUMBER).value)
            else:
                limit = first
                if self.accept_keyword("OFFSET"):
                    offset = int(self.expect(TokenType.NUMBER).value)
        return SelectStatement(items=tuple(items), table=table, alias=alias,
                               joins=tuple(joins), where=where,
                               group_by=tuple(group_by), having=having,
                               order_by=tuple(order_by), limit=limit,
                               offset=offset, distinct=distinct)

    def _select_items(self) -> list[SelectItem]:
        items = [self._select_item()]
        while self.accept(TokenType.COMMA):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        if self.peek().type is TokenType.STAR:
            self.advance()
            return SelectItem(Star())
        expr = self.expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.identifier()
        elif self.peek().type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return SelectItem(expr, alias)

    def _optional_alias(self) -> Optional[str]:
        if self.accept_keyword("AS"):
            return self.identifier()
        if self.peek().type is TokenType.IDENTIFIER:
            return self.advance().value
        return None

    def _join_clause(self) -> JoinClause:
        if self.accept_keyword("INNER"):
            self.expect_keyword("JOIN")
        elif self.accept_keyword("LEFT"):
            raise ParseError("LEFT JOIN is not supported by this dialect")
        else:
            self.expect_keyword("JOIN")
        table = self.table_name()
        alias = self._optional_alias()
        self.expect_keyword("ON")
        condition = self.expression()
        return JoinClause(table, alias, condition)

    def _order_item(self) -> OrderItem:
        expr = self.expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr, descending)

    def insert_statement(self) -> InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.table_name()
        columns: list[str] = []
        if self.accept(TokenType.LPAREN):
            columns.append(self.identifier())
            while self.accept(TokenType.COMMA):
                columns.append(self.identifier())
            self.expect(TokenType.RPAREN)
        self.expect_keyword("VALUES")
        rows = [self._value_row()]
        while self.accept(TokenType.COMMA):
            rows.append(self._value_row())
        return InsertStatement(table, tuple(columns), tuple(rows))

    def _value_row(self) -> tuple[Expression, ...]:
        self.expect(TokenType.LPAREN)
        values = [self.expression()]
        while self.accept(TokenType.COMMA):
            values.append(self.expression())
        self.expect(TokenType.RPAREN)
        return tuple(values)

    def update_statement(self) -> UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.table_name()
        self.expect_keyword("SET")
        assignments = [self._assignment()]
        while self.accept(TokenType.COMMA):
            assignments.append(self._assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.expression()
        return UpdateStatement(table, tuple(assignments), where)

    def _assignment(self) -> tuple[str, Expression]:
        column = self.identifier()
        token = self.peek()
        if token.type is not TokenType.OPERATOR or token.value not in ("=", "=="):
            raise ParseError(f"expected '=' in assignment, found "
                             f"{token.value!r}")
        self.advance()
        return column, self.expression()

    def delete_statement(self) -> DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.table_name()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.expression()
        return DeleteStatement(table, where)

    def create_statement(self) -> Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("DATABASE"):
            if_not_exists = self._if_not_exists()
            return CreateDatabaseStatement(self.identifier(), if_not_exists)
        unique = self.accept_keyword("UNIQUE") is not None
        if self.accept_keyword("INDEX"):
            name = self.identifier()
            self.expect_keyword("ON")
            table = self.table_name()
            self.expect(TokenType.LPAREN)
            columns = [self.identifier()]
            while self.accept(TokenType.COMMA):
                columns.append(self.identifier())
            self.expect(TokenType.RPAREN)
            return CreateIndexStatement(name, table, tuple(columns), unique)
        if unique:
            raise ParseError("UNIQUE must be followed by INDEX")
        self.expect_keyword("TABLE")
        if_not_exists = self._if_not_exists()
        table = self.table_name()
        self.expect(TokenType.LPAREN)
        columns = [self._column_def()]
        primary_key_cols: list[str] = []
        while self.accept(TokenType.COMMA):
            if self.check_keyword("PRIMARY"):
                self.advance()
                self.expect_keyword("KEY")
                self.expect(TokenType.LPAREN)
                primary_key_cols.append(self.identifier())
                while self.accept(TokenType.COMMA):
                    primary_key_cols.append(self.identifier())
                self.expect(TokenType.RPAREN)
            else:
                columns.append(self._column_def())
        self.expect(TokenType.RPAREN)
        if primary_key_cols:
            if len(primary_key_cols) > 1:
                raise ParseError("composite primary keys are not supported")
            columns = [
                _with_primary_key(col) if col.name == primary_key_cols[0]
                else col
                for col in columns]
        return CreateTableStatement(table, tuple(columns), if_not_exists)

    def _if_not_exists(self) -> bool:
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            return True
        return False

    def _column_def(self) -> ColumnDef:
        name = self.identifier()
        type_token = self.peek()
        if type_token.type is not TokenType.KEYWORD \
                or type_token.value not in _TYPE_KEYWORDS:
            raise ParseError(f"expected column type, found "
                             f"{type_token.value!r}")
        type_name = self.advance().value
        type_arg = None
        if self.accept(TokenType.LPAREN):
            type_arg = int(self.expect(TokenType.NUMBER).value)
            self.expect(TokenType.RPAREN)
        primary_key = auto_increment = False
        nullable = True
        default = None
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
            elif self.accept_keyword("AUTO_INCREMENT"):
                auto_increment = True
            elif self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                nullable = False
            elif self.accept_keyword("NULL"):
                nullable = True
            elif self.accept_keyword("DEFAULT"):
                default = self._literal()
            else:
                break
        return ColumnDef(name, type_name, type_arg, primary_key,
                         auto_increment, nullable, default)

    def drop_statement(self) -> DropTableStatement:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return DropTableStatement(self.table_name(), if_exists)

    # -- expressions -----------------------------------------------------------
    def expression(self) -> Expression:
        return self._or_expr()

    def _or_expr(self) -> Expression:
        left = self._and_expr()
        while self.accept_keyword("OR"):
            left = BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> Expression:
        left = self._not_expr()
        while self.accept_keyword("AND"):
            left = BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> Expression:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._predicate()

    def _predicate(self) -> Expression:
        left = self._additive()
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
            op = self.advance().value
            if op in ("==",):
                op = "="
            if op == "<>":
                op = "!="
            return BinaryOp(op, left, self._additive())
        negated = False
        if self.check_keyword("NOT"):
            nxt = self.peek(1)
            if nxt.type is TokenType.KEYWORD and nxt.value in (
                    "IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
        if self.accept_keyword("IN"):
            self.expect(TokenType.LPAREN)
            options = [self.expression()]
            while self.accept(TokenType.COMMA):
                options.append(self.expression())
            self.expect(TokenType.RPAREN)
            return InList(left, tuple(options), negated)
        if self.accept_keyword("BETWEEN"):
            low = self._additive()
            self.expect_keyword("AND")
            high = self._additive()
            return BetweenOp(left, low, high, negated)
        if self.accept_keyword("LIKE"):
            return LikeOp(left, self._additive(), negated)
        if self.accept_keyword("IS"):
            is_negated = self.accept_keyword("NOT") is not None
            self.expect_keyword("NULL")
            return IsNull(left, is_negated)
        if negated:
            raise ParseError("dangling NOT in predicate")
        return left

    def _additive(self) -> Expression:
        left = self._multiplicative()
        while True:
            token = self.peek()
            if token.type is TokenType.OPERATOR and token.value in ("+", "-"):
                op = self.advance().value
                left = BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expression:
        left = self._unary()
        while True:
            token = self.peek()
            if token.type is TokenType.STAR:
                self.advance()
                left = BinaryOp("*", left, self._unary())
            elif token.type is TokenType.OPERATOR and token.value in ("/", "%"):
                op = self.advance().value
                left = BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self) -> Expression:
        token = self.peek()
        if token.type is TokenType.OPERATOR and token.value == "-":
            self.advance()
            return UnaryOp("-", self._unary())
        if token.type is TokenType.OPERATOR and token.value == "+":
            self.advance()
            return self._unary()
        return self._primary()

    def _primary(self) -> Expression:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.type is TokenType.PARAM:
            self.advance()
            param = ParamRef(self._param_counter)
            self._param_counter += 1
            return param
        if token.type is TokenType.LPAREN:
            self.advance()
            inner = self.expression()
            self.expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.KEYWORD:
            if token.value in ("TRUE", "FALSE"):
                self.advance()
                return Literal(token.value == "TRUE")
            if token.value == "NULL":
                self.advance()
                return Literal(None)
            if token.value in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
                return self._function_call(self.advance().value)
            if self.peek(1).type is TokenType.LPAREN:
                # Non-reserved keyword used as a function name, e.g. a
                # UDF that happens to collide with a type keyword.
                return self._function_call(self.advance().value)
        if token.type is TokenType.IDENTIFIER:
            if self.peek(1).type is TokenType.LPAREN:
                return self._function_call(self.advance().value.upper())
            name = self.advance().value
            if self.accept(TokenType.DOT):
                if self.peek().type is TokenType.STAR:
                    self.advance()
                    return Star(table=name)
                return ColumnRef(self.identifier(), table=name)
            return ColumnRef(name)
        raise ParseError(f"unexpected token {token.value!r} in expression")

    def _function_call(self, name: str) -> FunctionCall:
        self.expect(TokenType.LPAREN)
        distinct = self.accept_keyword("DISTINCT") is not None
        args: list[Expression] = []
        if self.peek().type is TokenType.STAR:
            self.advance()
            args.append(Star())
        elif self.peek().type is not TokenType.RPAREN:
            args.append(self.expression())
            while self.accept(TokenType.COMMA):
                args.append(self.expression())
        self.expect(TokenType.RPAREN)
        return FunctionCall(name, tuple(args), distinct)

    def _literal(self) -> Literal:
        expr = self._unary()
        if isinstance(expr, Literal):
            return expr
        if isinstance(expr, UnaryOp) and expr.op == "-" \
                and isinstance(expr.operand, Literal):
            return Literal(-expr.operand.value)
        raise ParseError("DEFAULT value must be a literal")


def _with_primary_key(col: ColumnDef) -> ColumnDef:
    return ColumnDef(col.name, col.type_name, col.type_arg, True,
                     col.auto_increment, False, col.default)

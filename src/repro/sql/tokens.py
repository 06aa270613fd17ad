"""Token definitions for the SQL dialect.

The dialect is the subset of MySQL the customized Cloudstone workload
and the replication heartbeat need: DDL (CREATE TABLE / CREATE INDEX /
DROP TABLE / CREATE DATABASE), DML (INSERT / UPDATE / DELETE), queries
(SELECT with WHERE / JOIN / ORDER BY / LIMIT / aggregates) and
transaction control (BEGIN / COMMIT / ROLLBACK).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

__all__ = ["TokenType", "Token", "KEYWORDS"]


class TokenType(Enum):
    IDENTIFIER = auto()
    KEYWORD = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    COMMA = auto()
    DOT = auto()
    LPAREN = auto()
    RPAREN = auto()
    STAR = auto()
    SEMICOLON = auto()
    PARAM = auto()        # '?' placeholder
    EOF = auto()


#: Reserved words, uppercased.  An identifier matching one of these is
#: lexed as a KEYWORD token.
KEYWORDS = frozenset("""
    SELECT FROM WHERE AND OR NOT IN IS NULL LIKE BETWEEN
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE INDEX UNIQUE DATABASE DROP IF EXISTS USE
    PRIMARY KEY AUTO_INCREMENT DEFAULT
    INTEGER INT BIGINT FLOAT DOUBLE VARCHAR TEXT TIMESTAMP BOOLEAN DATETIME
    JOIN INNER LEFT ON AS ORDER BY ASC DESC LIMIT OFFSET GROUP HAVING
    COUNT SUM AVG MIN MAX DISTINCT
    BEGIN START TRANSACTION COMMIT ROLLBACK
    TRUE FALSE
""".split())


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r})"

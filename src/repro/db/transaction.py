"""Transaction state: undo log and buffered binlog statements."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

__all__ = ["UndoRecord", "Transaction"]


class UndoRecord(NamedTuple):
    """Enough information to reverse one row mutation.

    ``kind`` is ``insert`` (undo = delete pk), ``update`` (undo =
    restore old row) or ``delete`` (undo = re-insert old row).
    """

    kind: str
    table: str
    pk: Any
    old_row: Optional[dict] = None


@dataclass(slots=True)
class Transaction:
    """An open transaction on one engine session."""

    undo: list[UndoRecord] = field(default_factory=list)
    #: ``(payload, params, database)`` per write, binlogged on commit:
    #: a statement and its bound params (statement format, rendered to
    #: text only where it is read) or row images with ``None``.
    binlog_statements: list[tuple[Any, Any, str]] = field(
        default_factory=list)

    def record(self, record: UndoRecord) -> None:
        self.undo.append(record)

    def record_statement(self, payload: Any, params: Any,
                         database: str) -> None:
        self.binlog_statements.append((payload, params, database))

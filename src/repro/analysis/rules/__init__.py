"""Rule implementations, grouped by family (DET / SQL)."""

from . import determinism, sqlcheck

__all__ = ["determinism", "sqlcheck"]

"""Secondary indexes.

An index maps a key tuple (one or more column values) to the set of
primary keys whose rows carry that key, and keeps keys in sorted order
for range scans.  ``None`` keys are indexed (MySQL indexes NULLs too)
but excluded from range scans.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Optional

from .errors import DuplicateKeyError

__all__ = ["Index"]


class Index:
    """An ordered secondary index over one or more columns."""

    def __init__(self, name: str, columns: tuple[str, ...],
                 unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._buckets: dict[tuple, set] = {}
        self._sorted_keys: list[tuple] = []

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def key_of(self, row: dict[str, Any]) -> tuple:
        return tuple(row[c] for c in self.columns)

    # -- maintenance ---------------------------------------------------------
    def add(self, row: dict[str, Any], pk: Any) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = set()
            self._buckets[key] = bucket
            if not _has_none(key):
                bisect.insort(self._sorted_keys, key)
        elif self.unique and bucket:
            raise DuplicateKeyError(
                f"duplicate entry {key!r} for unique index {self.name!r}")
        bucket.add(pk)

    def remove(self, row: dict[str, Any], pk: Any) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None or pk not in bucket:
            raise KeyError(f"pk {pk!r} not present under key {key!r} "
                           f"in index {self.name!r}")
        bucket.discard(pk)
        if not bucket:
            del self._buckets[key]
            if not _has_none(key):
                position = bisect.bisect_left(self._sorted_keys, key)
                if position < len(self._sorted_keys) \
                        and self._sorted_keys[position] == key:
                    self._sorted_keys.pop(position)

    def rebuild(self, rows: Iterable[tuple[Any, dict[str, Any]]]) -> None:
        """Rebuild from scratch from ``(pk, row)`` pairs."""
        self._buckets.clear()
        self._sorted_keys = []
        for pk, row in rows:
            self.add(row, pk)

    def clone(self) -> "Index":
        """An independent index with the same contents."""
        twin = Index(self.name, self.columns, self.unique)
        twin._buckets = {key: set(bucket)
                         for key, bucket in self._buckets.items()}
        twin._sorted_keys = list(self._sorted_keys)
        return twin

    # -- lookups ---------------------------------------------------------------
    def lookup(self, key: tuple) -> frozenset:
        """Primary keys whose rows match ``key`` exactly."""
        return frozenset(self._buckets.get(key, ()))

    def range_scan(self, low: Optional[tuple] = None,
                   high: Optional[tuple] = None,
                   include_low: bool = True,
                   include_high: bool = True) -> Iterator[Any]:
        """Primary keys with keys in [low, high], in key order."""
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._sorted_keys, low)
        else:
            start = bisect.bisect_right(self._sorted_keys, low)
        if high is None:
            stop = len(self._sorted_keys)
        elif include_high:
            stop = bisect.bisect_right(self._sorted_keys, high)
        else:
            stop = bisect.bisect_left(self._sorted_keys, high)
        for position in range(start, stop):
            # Buckets are sets; yield them sorted so the scan order is
            # a pure function of the data, not of hash/insertion order.
            yield from sorted(self._buckets[self._sorted_keys[position]])

    def keys_in_order(self) -> list[tuple]:
        return list(self._sorted_keys)


def _has_none(key: tuple) -> bool:
    return any(part is None for part in key)

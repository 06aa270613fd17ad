"""Secondary indexes.

An index maps a key tuple (one or more column values) to the primary
keys whose rows carry that key, and keeps keys in sorted order for
range scans.  ``None`` keys are indexed (MySQL indexes NULLs too) but
excluded from range scans.

A bucket is the *sorted tuple* of the primary keys under one key, and
buckets are replace-on-write like rows: a write stores a new tuple and
none is ever edited, so clones share them and :meth:`Index.lookup`
hands out the bucket itself, already in pk order.
"""

from __future__ import annotations

import bisect
from itertools import chain
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
        self._buckets: dict[tuple, tuple] = {}
        self._sorted_keys: list[tuple] = []

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def key_of(self, row: dict[str, Any]) -> tuple:
        return tuple(map(row.__getitem__, self.columns))

    # -- maintenance ---------------------------------------------------------
    def check(self, row: dict[str, Any], pk: Any) -> None:
        """Raise :class:`DuplicateKeyError` when a unique index holds
        ``row``'s key for a primary key other than ``pk``."""
        if self.unique:
            key = self.key_of(row)
            if any(other != pk for other in self._buckets.get(key, ())):
                raise self._duplicate(key)

    def add(self, row: dict[str, Any], pk: Any) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = (pk,)
            if not _has_none(key):
                bisect.insort(self._sorted_keys, key)
            return
        if self.unique:
            raise self._duplicate(key)
        position = bisect.bisect_left(bucket, pk)
        if position == len(bucket) or bucket[position] != pk:
            self._buckets[key] = bucket[:position] + (pk,) + bucket[position:]

    def remove(self, row: dict[str, Any], pk: Any) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key, ())
        position = bisect.bisect_left(bucket, pk)
        if position == len(bucket) or bucket[position] != pk:
            raise KeyError(f"pk {pk!r} not present under key {key!r} "
                           f"in index {self.name!r}")
        if len(bucket) > 1:
            self._buckets[key] = bucket[:position] + bucket[position + 1:]
            return
        del self._buckets[key]
        if not _has_none(key):
            position = bisect.bisect_left(self._sorted_keys, key)
            if position < len(self._sorted_keys) \
                    and self._sorted_keys[position] == key:
                self._sorted_keys.pop(position)

    def rebuild(self, rows: Iterable[tuple[Any, dict[str, Any]]]) -> None:
        """Rebuild from scratch from ``(pk, row)`` pairs: each bucket is
        gathered once and sorted once, so backfilling a low-cardinality
        index costs a sort, not a tuple copy per row."""
        gathered: dict[tuple, list] = {}
        for pk, row in rows:
            key = self.key_of(row)
            pks = gathered.get(key)
            if pks is None:
                gathered[key] = [pk]
            elif self.unique:
                raise self._duplicate(key)
            else:
                pks.append(pk)
        self._buckets = {key: tuple(sorted(pks))
                         for key, pks in gathered.items()}
        self._sorted_keys = sorted(key for key in self._buckets
                                   if not _has_none(key))

    def clone(self) -> "Index":
        """An independent index with the same contents; the (immutable)
        buckets are shared."""
        twin = Index(self.name, self.columns, self.unique)
        twin._buckets = dict(self._buckets)
        twin._sorted_keys = list(self._sorted_keys)
        return twin

    def _duplicate(self, key: tuple) -> DuplicateKeyError:
        return DuplicateKeyError(
            f"duplicate entry {key!r} for unique index {self.name!r}")

    # -- lookups ---------------------------------------------------------------
    def lookup(self, key: tuple) -> tuple:
        """Primary keys whose rows match ``key`` exactly, in pk order."""
        return self._buckets.get(key, ())

    def range_keys(self, low: Optional[tuple] = None,
                   high: Optional[tuple] = None,
                   include_low: bool = True,
                   include_high: bool = True) -> list[tuple]:
        """The (non-NULL) keys in [low, high], ascending."""
        keys = self._sorted_keys
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(keys, low)
        else:
            start = bisect.bisect_right(keys, low)
        if high is None:
            stop = len(keys)
        elif include_high:
            stop = bisect.bisect_right(keys, high)
        else:
            stop = bisect.bisect_left(keys, high)
        return keys[start:stop]

    def count(self, keys: list[tuple]) -> int:
        """How many primary keys lie under ``keys`` (keys it holds)."""
        return sum(map(len, map(self._buckets.__getitem__, keys)))

    def pks_under(self, keys: Iterable[tuple]) -> Iterator[Any]:
        """The primary keys under ``keys`` (keys it holds), key by key
        and each key's in pk order; a bucket is read only when the
        walk reaches it, so a caller that changes the index must
        materialise the walk first."""
        return chain.from_iterable(map(self._buckets.__getitem__, keys))

    def keys_in_order(self) -> list[tuple]:
        return list(self._sorted_keys)


def _has_none(key: tuple) -> bool:
    return any(part is None for part in key)

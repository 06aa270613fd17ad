"""Index tests, including a property test against brute-force scans."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import DuplicateKeyError, Index


def test_add_lookup_remove():
    index = Index("idx", ("a",))
    index.add({"a": 1, "b": "x"}, pk=10)
    index.add({"a": 1, "b": "y"}, pk=11)
    index.add({"a": 2, "b": "z"}, pk=12)
    assert index.lookup((1,)) == (10, 11)
    assert index.lookup((2,)) == (12,)
    assert index.lookup((3,)) == ()
    assert len(index) == 3
    index.remove({"a": 1, "b": "x"}, pk=10)
    assert index.lookup((1,)) == (11,)


def test_remove_missing_raises():
    index = Index("idx", ("a",))
    with pytest.raises(KeyError):
        index.remove({"a": 1}, pk=99)


def test_unique_violation():
    index = Index("ux", ("a",), unique=True)
    index.add({"a": 1}, pk=10)
    with pytest.raises(DuplicateKeyError):
        index.add({"a": 1}, pk=11)


def test_unique_allows_reinsert_after_remove():
    index = Index("ux", ("a",), unique=True)
    index.add({"a": 1}, pk=10)
    index.remove({"a": 1}, pk=10)
    index.add({"a": 1}, pk=11)
    assert index.lookup((1,)) == (11,)


def test_composite_key():
    index = Index("idx", ("a", "b"))
    index.add({"a": 1, "b": 2}, pk=10)
    assert index.lookup((1, 2)) == (10,)
    assert index.lookup((1, 3)) == ()


def _range(index, *bounds, **inclusive):
    """Primary keys in a key range, as the engine walks one."""
    return index.pks_under(index.range_keys(*bounds, **inclusive))


def test_range_scan_inclusive():
    index = Index("idx", ("a",))
    for pk, a in enumerate([5, 3, 8, 1, 9]):
        index.add({"a": a}, pk=pk)
    got = sorted(_range(index, (3,), (8,)))
    assert got == [0, 1, 2]  # values 5, 3, 8


def test_range_scan_exclusive_bounds():
    index = Index("idx", ("a",))
    for pk, a in enumerate([1, 2, 3, 4]):
        index.add({"a": a}, pk=pk)
    got = sorted(_range(index, (1,), (4,), include_low=False,
                                  include_high=False))
    assert got == [1, 2]


def test_range_scan_open_ended():
    index = Index("idx", ("a",))
    for pk, a in enumerate([1, 2, 3]):
        index.add({"a": a}, pk=pk)
    assert sorted(_range(index, low=(2,))) == [1, 2]
    assert sorted(_range(index, high=(2,))) == [0, 1]
    assert sorted(_range(index, )) == [0, 1, 2]


def test_null_keys_indexed_but_not_in_ranges():
    index = Index("idx", ("a",))
    index.add({"a": None}, pk=1)
    index.add({"a": 5}, pk=2)
    assert index.lookup((None,)) == (1,)
    assert list(_range(index, )) == [2]
    index.remove({"a": None}, pk=1)
    assert index.lookup((None,)) == ()


def test_rebuild():
    index = Index("idx", ("a",))
    index.add({"a": 1}, pk=1)
    index.rebuild([(10, {"a": 5}), (11, {"a": 6})])
    assert index.lookup((1,)) == ()
    assert index.lookup((5,)) == (10,)
    assert index.keys_in_order() == [(5,), (6,)]


@given(values=st.lists(
    st.tuples(st.integers(min_value=0, max_value=20),
              st.integers(min_value=-50, max_value=50)),
    min_size=0, max_size=80),
    low=st.integers(min_value=-50, max_value=50),
    span=st.integers(min_value=0, max_value=60))
@settings(max_examples=200, deadline=None)
def test_index_matches_brute_force(values, low, span):
    """Index lookups and range scans agree with a brute-force scan,
    after an interleaving of inserts and deletes."""
    index = Index("idx", ("a",))
    live = {}
    for pk, (action_selector, a) in enumerate(values):
        if action_selector % 4 == 0 and live:
            victim = next(iter(live))
            index.remove({"a": live.pop(victim)}, victim)
        else:
            index.add({"a": a}, pk)
            live[pk] = a
    high = low + span
    expected_range = {pk for pk, a in live.items() if low <= a <= high}
    assert set(_range(index, (low,), (high,))) == expected_range
    assert index.count(index.range_keys((low,), (high,))) \
        == len(expected_range)
    for probe in sorted(set(live.values())):
        expected = {pk for pk, a in live.items() if a == probe}
        assert set(index.lookup((probe,))) == expected
    assert len(index) == len(live)

"""``Index`` against a model: two tables that clone each other, under
any interleaving of writes, clones, rebuilds, ``CREATE INDEX`` and
rolled-back transactions.

The model is the obvious one — rows as a dict, each index as a dict
of key -> set of pks — and after every step each index must say the
same: buckets are the sorted tuples of those sets, ``NULL`` keys are
absent from the ordered keys and from range scans, a scan yields in
(key, pk) order, and a unique index refuses exactly the writes the
model refuses, leaving every index untouched.  Clones share their row
map and indexes until either side writes (copy-on-write) and buckets
for good, so a write on one side showing on the other fails here —
whichever of the five mutators (insert, update, delete, the undo's
restore, create_index) it came through.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.db import (DuplicateKeyError, Index, SchemaError, Table,
                      schema_from_ast)
from repro.sql.ast import ColumnDef

#: index name -> (columns, unique)
INDEXES = {"idx_a": (("a",), False), "idx_ab": (("a", "b"), False),
           "ux_u": (("u",), True)}
#: Indexes a ``CREATE INDEX`` rule may add later: name -> columns.
LATE_INDEXES = {"idx_b": ("b",), "idx_ba": ("b", "a")}

pks = st.sampled_from([f"k{n}" for n in range(8)])   # VARCHAR pks
a_values = st.one_of(st.none(), st.integers(0, 3))
b_values = st.one_of(st.none(), st.sampled_from(["x", "y"]))
u_values = st.integers(0, 9)
sides = st.sampled_from([0, 1])


def make_table() -> Table:
    table = Table(schema_from_ast("main.items", (
        ColumnDef("id", "VARCHAR", 8, primary_key=True),
        ColumnDef("a", "INTEGER", None),
        ColumnDef("b", "VARCHAR", 4),
        ColumnDef("u", "INTEGER", None, nullable=False),
    )))
    for name, (columns, unique) in INDEXES.items():
        table.create_index(name, columns, unique)
    return table


def reference(rows: dict, columns: tuple) -> dict:
    """The model index: key -> set of pks."""
    buckets: dict = {}
    for pk, row in rows.items():
        buckets.setdefault(tuple(row[c] for c in columns), set()).add(pk)
    return buckets


def conflicts(rows: dict, u: int, pk) -> bool:
    return any(row["u"] == u for other, row in rows.items() if other != pk)


class ClonedIndexes(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tables = [make_table(), make_table()]
        self.models = [{}, {}]
        #: Per side: the late indexes it has, and the open transaction —
        #: there always is one — as the model at its start and the undo
        #: log since.
        self.late = [{}, {}]
        self.begun = [{}, {}]
        self.undo: list = [[], []]

    def logged(self, side, kind, pk, old_row=None):
        self.undo[side].append((kind, pk, old_row))

    @initialize(rows=st.dictionaries(pks, u_values, max_size=4))
    def shared_start(self, rows):
        """Start shared: side 1 a clone of a side 0 holding ``rows``,
        so the first write on either side must copy."""
        for n, (pk, u) in enumerate(rows.items()):
            if not conflicts(self.models[0], u, pk):
                self.insert(0, pk, n % 4, None, u)
        self.commit(0)
        self.clone(0)

    @rule(side=sides, pk=pks, a=a_values, b=b_values, u=u_values)
    def insert(self, side, pk, a, b, u):
        table, rows = self.tables[side], self.models[side]
        row = {"id": pk, "a": a, "b": b, "u": u}
        if pk in rows or conflicts(rows, u, pk):
            with pytest.raises(DuplicateKeyError):
                table.insert(row)
        else:
            assert table.insert(row) == pk
            rows[pk] = row
            self.logged(side, "insert", pk)

    def occupied(self, data) -> tuple[int, Table, dict, str]:
        """A side holding rows, and one of its pks."""
        side = data.draw(st.sampled_from(
            [side for side in (0, 1) if self.models[side]]))
        rows = self.models[side]
        return (side, self.tables[side], rows,
                data.draw(st.sampled_from(sorted(rows))))

    @precondition(lambda self: self.models[0] or self.models[1])
    @rule(data=st.data(), new_pk=st.one_of(st.none(), pks),
          a=a_values, b=b_values)
    def update(self, data, new_pk, a, b):
        side, table, rows, pk = self.occupied(data)
        # Often another row's unique key: the update must be refused.
        u = data.draw(st.one_of(u_values, st.sampled_from(
            sorted(row["u"] for row in rows.values()))))
        changes = {"a": a, "b": b, "u": u}
        if new_pk is not None:   # a pk-moving UPDATE
            changes["id"] = new_pk
        new_row = {**rows[pk], **changes}
        moved = new_row["id"] != pk
        if (moved and new_row["id"] in rows) \
                or conflicts(rows, new_row["u"], pk):
            with pytest.raises(DuplicateKeyError):
                table.update(pk, changes)
            return
        assert table.update(pk, changes) == rows[pk]
        self.logged(side, "update", new_row["id"], rows.pop(pk))
        rows[new_row["id"]] = new_row

    @precondition(lambda self: self.models[0] or self.models[1])
    @rule(data=st.data())
    def delete(self, data):
        side, table, rows, pk = self.occupied(data)
        assert table.delete(pk) == rows[pk]
        self.logged(side, "delete", pk, rows.pop(pk))

    @rule(source=sides)
    def clone(self, source):
        target = 1 - source
        self.tables[target] = self.tables[source].clone()
        self.models[target] = dict(self.models[source])
        self.late[target] = dict(self.late[source])
        # The open transaction comes along: its undo fits the clone too.
        self.begun[target] = dict(self.begun[source])
        self.undo[target] = list(self.undo[source])

    @rule(side=sides, name=st.sampled_from(sorted(LATE_INDEXES)))
    def create_index(self, side, name):
        table, columns = self.tables[side], LATE_INDEXES[name]
        if name in self.late[side]:
            with pytest.raises(SchemaError):
                table.create_index(name, columns)
            return
        table.create_index(name, columns)
        self.late[side][name] = columns

    @rule(side=sides)
    def commit(self, side):
        self.begun[side] = dict(self.models[side])
        self.undo[side] = []

    @rule(side=sides, share=st.booleans())
    def rollback(self, side, share):
        """Undo the side's writes the way the engine does — the last
        first, an update by delete + restore of the old row — after
        cloning the side first when ``share``: a rollback on a table
        shared with another."""
        if share:
            self.clone(side)
        table = self.tables[side]
        for kind, pk, old_row in reversed(self.undo[side]):
            if kind != "delete":
                table.delete(pk)
            if kind != "insert":
                table.restore(old_row["id"], old_row)
        self.models[side] = self.begun[side]
        self.commit(side)

    @rule(side=sides, name=st.sampled_from(sorted(INDEXES)))
    def rebuild(self, side, name):
        table = self.tables[side]
        table.indexes[name].rebuild(table.rows.items())

    @rule(side=sides, low=st.one_of(st.none(), st.integers(-1, 4)),
          high=st.one_of(st.none(), st.integers(-1, 4)),
          include_low=st.booleans(), include_high=st.booleans())
    def bounded_scan(self, side, low, high, include_low, include_high):
        model = reference(self.models[side], ("a",))

        def inside(value):
            return ((low is None or value > low
                     or (include_low and value == low))
                    and (high is None or value < high
                         or (include_high and value == high)))

        expected = [pk for (value,) in sorted(key for key in model
                                              if key != (None,))
                    if inside(value) for pk in sorted(model[(value,)])]
        index = self.tables[side].indexes["idx_a"]
        got = index.pks_under(index.range_keys(
            None if low is None else (low,),
            None if high is None else (high,), include_low, include_high))
        assert list(got) == expected

    @invariant()
    def indexes_match_the_model(self):
        for table, rows, late in zip(self.tables, self.models, self.late):
            assert dict(table.rows) == rows
            columns_of = {name: columns
                          for name, (columns, _unique) in INDEXES.items()}
            columns_of.update(late)
            assert sorted(table.indexes) == sorted(columns_of)
            for name, columns in columns_of.items():
                index = table.indexes[name]
                model = reference(rows, columns)
                assert index._buckets == {key: tuple(sorted(pks))
                                          for key, pks in model.items()}
                assert all(type(bucket) is tuple
                           for bucket in index._buckets.values())
                ordered = sorted(key for key in model if None not in key)
                assert index.keys_in_order() == ordered
                assert list(index.pks_under(index.range_keys())) == [
                    pk for key in ordered for pk in sorted(model[key])]
                for key, pks in model.items():
                    assert index.lookup(key) == tuple(sorted(pks))
                assert len(index) == len(rows)


ClonedIndexes.TestCase.settings = settings(
    max_examples=150, stateful_step_count=20, deadline=None)
test_cloned_indexes_match_the_model = ClonedIndexes.TestCase


def test_rebuild_builds_each_bucket_once(monkeypatch):
    # Two keys over thousands of rows: adding row by row would copy a
    # growing tuple per row (quadratic); rebuild gathers, then sorts.
    def refuse(*_args):
        raise AssertionError("rebuild went through add()")

    monkeypatch.setattr(Index, "add", refuse)
    index = Index("idx", ("flag",))
    rows = [(pk, {"flag": pk % 2 == 0}) for pk in range(5000, 0, -1)]
    index.rebuild(rows)
    assert index.lookup((True,)) == tuple(range(2, 5001, 2))
    assert index.lookup((False,)) == tuple(range(1, 5000, 2))
    assert index.keys_in_order() == [(False,), (True,)]


def test_refused_rebuild_keeps_the_old_contents():
    index = Index("ux", ("u",), unique=True)
    index.add({"u": 1}, pk=10)
    with pytest.raises(DuplicateKeyError):
        index.rebuild([(1, {"u": 7}), (2, {"u": 7})])
    assert index.lookup((1,)) == (10,) and index.lookup((7,)) == ()

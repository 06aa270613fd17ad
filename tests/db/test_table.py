"""Table storage tests."""

import pytest

from repro.db import (DuplicateKeyError, SchemaError, Table, schema_from_ast)
from repro.sql.ast import ColumnDef, Literal


def make_table():
    schema = schema_from_ast("main.users", (
        ColumnDef("id", "INTEGER", None, primary_key=True,
                  auto_increment=True),
        ColumnDef("name", "VARCHAR", 20, nullable=False),
        ColumnDef("karma", "INTEGER", None, default=Literal(0)),
    ))
    return Table(schema)


def test_insert_auto_increment():
    table = make_table()
    assert table.insert({"name": "a"}) == 1
    assert table.insert({"name": "b"}) == 2
    assert len(table) == 2


def test_insert_explicit_pk_moves_watermark():
    table = make_table()
    table.insert({"id": 10, "name": "a"})
    assert table.insert({"name": "b"}) == 11


def test_duplicate_pk():
    table = make_table()
    table.insert({"id": 1, "name": "a"})
    with pytest.raises(DuplicateKeyError):
        table.insert({"id": 1, "name": "b"})


def test_null_pk_rejected():
    table = make_table()
    with pytest.raises(SchemaError):
        table.insert({"id": None, "name": "a"})


def test_update_returns_old_row():
    table = make_table()
    pk = table.insert({"name": "a", "karma": 1})
    old = table.update(pk, {"karma": 5})
    assert old["karma"] == 1
    assert table.get(pk)["karma"] == 5


def test_update_pk_move():
    table = make_table()
    table.insert({"id": 1, "name": "a"})
    table.update(1, {"id": 9})
    assert table.get(1) is None
    assert table.get(9)["name"] == "a"


def test_update_pk_collision():
    table = make_table()
    table.insert({"id": 1, "name": "a"})
    table.insert({"id": 2, "name": "b"})
    with pytest.raises(DuplicateKeyError):
        table.update(1, {"id": 2})


def test_update_not_null_enforced():
    table = make_table()
    pk = table.insert({"name": "a"})
    with pytest.raises(SchemaError):
        table.update(pk, {"name": None})


def test_delete_and_restore():
    table = make_table()
    pk = table.insert({"name": "a", "karma": 3})
    row = table.delete(pk)
    assert len(table) == 0
    table.restore(pk, row)
    assert table.get(pk)["karma"] == 3
    with pytest.raises(DuplicateKeyError):
        table.restore(pk, row)


def test_indexes_maintained_through_mutations():
    table = make_table()
    index = table.create_index("idx_karma", ("karma",))
    a = table.insert({"name": "a", "karma": 1})
    b = table.insert({"name": "b", "karma": 1})
    assert index.lookup((1,)) == (a, b)
    table.update(a, {"karma": 7})
    assert index.lookup((1,)) == (b,)
    assert index.lookup((7,)) == (a,)
    table.delete(b)
    assert index.lookup((1,)) == ()


def test_refused_unique_write_leaves_every_index_untouched():
    # The unique index comes second: a refusal found there must not
    # leave the first index holding a pk the table does not have.
    table = make_table()
    karma = table.create_index("idx_karma", ("karma",))
    names = table.create_index("ux_name", ("name",), unique=True)
    a = table.insert({"name": "a", "karma": 1})
    b = table.insert({"name": "b", "karma": 2})
    before = (dict(table.rows), dict(karma._buckets), dict(names._buckets))
    with pytest.raises(DuplicateKeyError):
        table.insert({"id": 9, "name": "a", "karma": 1})
    with pytest.raises(DuplicateKeyError):
        table.update(b, {"karma": 1, "name": "a"})
    with pytest.raises(DuplicateKeyError):
        table.update(b, {"id": 7, "name": "a"})
    assert (table.rows, karma._buckets, names._buckets) == before
    # A pk move that keeps its unique key is not a conflict.
    table.update(a, {"id": 5})
    assert names.lookup(("a",)) == (5,) and karma.lookup((1,)) == (5,)


def test_create_index_backfills_existing_rows():
    table = make_table()
    pk = table.insert({"name": "a", "karma": 4})
    index = table.create_index("idx", ("karma",))
    assert index.lookup((4,)) == (pk,)


def test_create_index_duplicate_name():
    table = make_table()
    table.create_index("idx", ("karma",))
    with pytest.raises(SchemaError):
        table.create_index("idx", ("name",))


def test_create_index_unknown_column():
    table = make_table()
    with pytest.raises(SchemaError):
        table.create_index("idx", ("missing",))


def test_index_on_leading_column():
    table = make_table()
    table.create_index("idx", ("karma", "name"))
    assert table.index_on("karma") is not None
    assert table.index_on("name") is None


def test_scan_order_is_insertion_order():
    table = make_table()
    table.insert({"id": 5, "name": "x"})
    table.insert({"id": 1, "name": "y"})
    assert [pk for pk, _row in table.scan()] == [5, 1]


def test_checksum_state_is_order_independent():
    t1, t2 = make_table(), make_table()
    t1.insert({"id": 1, "name": "a"})
    t1.insert({"id": 2, "name": "b"})
    t2.insert({"id": 2, "name": "b"})
    t2.insert({"id": 1, "name": "a"})
    assert t1.checksum_state() == t2.checksum_state()

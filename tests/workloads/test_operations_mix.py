"""Operation and mix tests."""

from types import SimpleNamespace

import pytest

from repro.cloud import Cloud, MASTER_PLACEMENT
from repro.db.engine import StorageEngine
from repro.replication import ReplicationManager
from repro.replication.heartbeat import _INSERT_HEARTBEAT
from repro.sim import RandomStreams, Simulator
from repro.sql import parse
from repro.sql.plancache import _literal_value, fingerprint
from repro.workloads.cloudstone import (MIX_50_50, MIX_80_20,
                                        OperationMix, READ_OPERATIONS,
                                        WRITE_OPERATIONS, WorkloadState,
                                        load_initial_data, loader,
                                        operation_by_name)
from tests.sql.test_plancache import literal_form

ALL_OPERATIONS = [op for op, _w in READ_OPERATIONS + WRITE_OPERATIONS]


@pytest.fixture
def state():
    return WorkloadState(n_users=100, n_events=100, n_tags=40)


@pytest.fixture
def rng():
    return RandomStreams(11).stream("ops")


@pytest.mark.parametrize("operation", ALL_OPERATIONS,
                         ids=lambda op: op.name)
def test_every_operation_builds_parseable_sql(operation, state, rng):
    for _ in range(20):
        statements = operation.build(state, rng)
        assert statements
        for sql, params in statements:
            parsed = parse(sql)
            assert isinstance(params, tuple)
            if not operation.is_write:
                assert not parsed.is_write, \
                    f"read op {operation.name} contains a write"


@pytest.mark.parametrize("operation", ALL_OPERATIONS,
                         ids=lambda op: op.name)
def test_every_operation_executes_against_loaded_data(operation, state, rng):
    sim = Simulator()
    cloud = Cloud(sim, RandomStreams(12))
    manager = ReplicationManager(sim, cloud, ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT)
    loaded_state = load_initial_data(master, 50,
                                     RandomStreams(1).stream("l"))
    for _ in range(10):
        for sql, params in operation.build(loaded_state, rng):
            master.admin(sql, params)  # must not raise


def test_write_operations_contain_a_write(state, rng):
    for operation, _weight in WRITE_OPERATIONS:
        statements = [parse(s) for s, _ in operation.build(state, rng)]
        assert any(s.is_write for s in statements)


def test_create_event_grows_state(state):
    operation = operation_by_name("create_event")
    before = state.n_events
    operation.on_complete(state)
    assert state.n_events == before + 1


def test_create_user_grows_state(state):
    operation = operation_by_name("create_user")
    before = state.n_users
    operation.on_complete(state)
    assert state.n_users == before + 1


def test_unknown_operation_name():
    with pytest.raises(KeyError):
        operation_by_name("drop_all_tables")


def test_write_ops_stamp_literal_timestamps(state, rng):
    """Replicated writes must NOT call non-deterministic time functions
    (each replica would commit a different value); the client stamps a
    literal instead.  Only the heartbeat insert uses USEC_NOW()."""
    for operation, _weight in WRITE_OPERATIONS:
        for sql, _params in operation.build(state, rng):
            assert "USEC_NOW" not in sql
    state.now_fn = lambda: 123.25
    statements = operation_by_name("add_comment").build(state, rng)
    assert any(123.25 in params for _sql, params in statements)


# ------------------------------------------- templates are the fingerprints
def assert_is_own_fingerprint(template, params):
    found, raws = fingerprint(literal_form(template, params))
    assert found == template
    values = [_literal_value(raw) for raw in raws]
    assert values == list(params)
    # A numpy scalar would compare equal and render differently.
    assert all(type(value) in (int, float, str) for value in params)


@pytest.mark.parametrize("operation", ALL_OPERATIONS,
                         ids=lambda op: op.name)
def test_operation_templates_are_their_own_fingerprints(operation, state,
                                                        rng):
    state.now_fn = lambda: float(rng.random()) * 1e4
    for _ in range(20):
        for template, params in operation.build(state, rng):
            assert_is_own_fingerprint(template, params)


def test_loader_and_heartbeat_templates_are_their_own_fingerprints():
    scratch = SimpleNamespace(
        engine=StorageEngine(default_database="cloudstone"))
    load_initial_data(scratch, 30, RandomStreams(2).stream("l"))
    dml = [(template, params) for template, params, _committed
           in next(reversed(loader._IMAGES.values()))[1] if params]
    assert len({template for template, _ in dml}) == 7
    for template, params in dml:
        assert_is_own_fingerprint(template, params)
    assert_is_own_fingerprint(_INSERT_HEARTBEAT, (17,))


@pytest.mark.parametrize("operation",
                         [op for op, _w in WRITE_OPERATIONS],
                         ids=lambda op: op.name)
def test_binlog_text_equals_that_of_the_literal_form(operation, rng):
    def loaded_master():
        sim = Simulator()
        manager = ReplicationManager(sim, Cloud(sim, RandomStreams(12)),
                                     ntp_period=None)
        master = manager.create_master(MASTER_PLACEMENT)
        return master, load_initial_data(master, 50,
                                         RandomStreams(1).stream("l"))

    by_params, state = loaded_master()
    by_text, _ = loaded_master()
    loaded = by_params.binlog.head_position
    state.now_fn = lambda: float(rng.random()) * 1e4
    for _ in range(10):
        for template, params in operation.build(state, rng):
            by_params.admin(template, params)
            by_text.admin(literal_form(template, params))
    events = [[(e.statement, e.database) for e in master.binlog.events]
              for master in (by_params, by_text)]
    assert events[0] == events[1]
    assert len(events[0]) >= loaded + 10  # every operation committed
    assert by_params.engine.checksum() == by_text.engine.checksum()


# ------------------------------------------------------------------- mix
def test_mix_read_fractions():
    assert MIX_50_50.read_fraction == 0.5
    assert MIX_80_20.read_fraction == 0.8
    assert MIX_80_20.write_fraction == pytest.approx(0.2)


def test_mix_pick_respects_ratio(rng):
    picks = [MIX_80_20.pick(rng) for _ in range(4000)]
    read_fraction = sum(1 for op in picks if not op.is_write) / len(picks)
    assert 0.77 < read_fraction < 0.83


def test_mix_pick_uses_weights(rng):
    picks = [MIX_50_50.pick(rng) for _ in range(6000)]
    counts = {}
    for op in picks:
        counts[op.name] = counts.get(op.name, 0) + 1
    # view_event_detail (w=0.35 of reads) must be the most common read.
    read_counts = {op.name: counts.get(op.name, 0)
                   for op, _w in READ_OPERATIONS}
    assert max(read_counts, key=read_counts.get) == "view_event_detail"


def test_invalid_read_fraction_rejected():
    with pytest.raises(ValueError):
        OperationMix("bad", read_fraction=1.5)


# ----------------------------------------------------------------- state
def test_state_id_picks_in_range(state, rng):
    for _ in range(200):
        assert 1 <= state.random_user(rng) <= state.n_users
        assert 1 <= state.random_event(rng) <= state.n_events
        assert 1 <= state.random_tag(rng) <= state.n_tags


def test_state_date_window(state, rng):
    low, high = state.random_date_window(rng, fraction=0.2)
    assert 0.0 <= low < high <= state.time_horizon
    assert high - low == pytest.approx(state.time_horizon * 0.2)

"""The cached dataset image: a cached install equals a building one.

``load_initial_data`` builds the dataset once per (data size, binlog
format, generator state) and installs a clone on every master.  These
tests pin the contract that makes that invisible: whether the image
was just built or reused, a master ends up exactly as if it had
executed every statement of the load itself.
"""

import gc
import weakref

import pytest

from repro.cloud import Cloud, MASTER_PLACEMENT
from repro.db import SchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.replication import ReplicationManager
from repro.sim import RandomStreams, Simulator
from repro.sql.plancache import PlanCache
from repro.workloads.cloudstone import CLOUDSTONE_DATABASE, loader
from repro.workloads.cloudstone.loader import load_initial_data


@pytest.fixture(autouse=True)
def no_cached_images():
    """Each test starts cold, so its first load is a building one."""
    loader._IMAGES.clear()
    yield
    loader._IMAGES.clear()


def make_master(binlog_format="statement", traced=False):
    """A master; ``traced`` attaches a tracer and starts it at a sim
    instant where its drifting clock reads neither 0 nor sim time."""
    sim = Simulator()
    if traced:
        sim.tracer = Tracer(sim)
    manager = ReplicationManager(sim, Cloud(sim, RandomStreams(9)),
                                 ntp_period=None,
                                 binlog_format=binlog_format)
    master = manager.create_master(MASTER_PLACEMENT)
    if traced:
        sim.run(until=7.25)
    return master


def observed(master, state, rng):
    """Everything a load leaves behind, in comparable form."""
    cache = master.engine.plan_cache
    return {
        "checksum": master.engine.checksum(),
        "tables": list(master.engine.tables),
        "databases": sorted(master.engine.databases),
        "statements_executed": master.engine.statements_executed,
        # Every BinlogEvent field; the id is the one masters differ in.
        "binlog": [event._replace(server_id=None)
                   for event in master.binlog.events],
        "own_server_id": all(event.server_id == master.server_id
                             for event in master.binlog.events),
        "plan_cache": (cache.hits, cache.misses, cache.evictions,
                       list(cache._exact), list(cache._templates)),
        "rng": rng.bit_generator.state,
        "state": (state.n_users, state.n_events, state.n_tags,
                  state.time_horizon),
        "binlog_instants": [
            (span.name, span.category, span.track, span.start,
             span.attributes)
            for span in getattr(master.sim.tracer, "spans", ())
            if span.name == "repl.binlog"],
    }


def load(data_size, seed, binlog_format, traced=False):
    master = make_master(binlog_format, traced)
    rng = RandomStreams(seed).stream("loader")
    state = load_initial_data(master, data_size, rng)
    return master, observed(master, state, rng)


@pytest.mark.parametrize("binlog_format", ["statement", "row"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("data_size", [150, 300, 600])
def test_cached_install_equals_building_install(data_size, seed,
                                                binlog_format):
    _, built = load(data_size, seed, binlog_format)
    assert len(loader._IMAGES) == 1
    _, cached = load(data_size, seed, binlog_format)
    assert len(loader._IMAGES) == 1
    assert cached == built
    # The image is keyed by what the dataset depends on.
    _, other_seed = load(data_size, seed + 2, binlog_format)
    assert len(loader._IMAGES) == 2
    assert other_seed["checksum"] != built["checksum"]


@pytest.mark.parametrize("binlog_format", ["statement", "row"])
def test_install_equals_executing_the_statements(binlog_format):
    """The reference: the load's statements run on the master itself,
    one commit listener call each where the install makes one in all —
    invisible in the binlog and in the trace's ``repl.binlog`` marks."""
    _, installed = load(150, 4, binlog_format, traced=True)
    (_tables, statements, rng_state), = loader._IMAGES.values()
    reference = make_master(binlog_format, traced=True)
    for template, params, _committed in statements:
        reference.admin(template, params, database=CLOUDSTONE_DATABASE)
    rng = RandomStreams(4).stream("loader")
    rng.bit_generator.state = rng_state
    state = loader.WorkloadState(150, 150, loader.TAG_COUNT)
    assert observed(reference, state, rng) == installed
    # One mark per event, at its position and sim time.
    events = installed["binlog"]
    assert [(start, attributes["position"])
            for _n, _c, _t, start, attributes
            in installed["binlog_instants"]] \
        == [(event.commit_simtime, event.position) for event in events]
    assert len(events) > 1000 and events[-1].commit_simtime == 7.25
    assert events[-1].commit_wallclock != 7.25
    # Row order and index contents too, not just the sorted checksum.
    master, _ = load(150, 4, binlog_format)
    for name, table in reference.engine.tables.items():
        twin = master.engine.tables[name]
        assert list(twin.rows.items()) == list(table.rows.items())
        assert twin._next_auto_increment == table._next_auto_increment
        for index_name, index in table.indexes.items():
            assert twin.indexes[index_name]._buckets == index._buckets
            assert twin.indexes[index_name].keys_in_order() \
                == index.keys_in_order()


def hits_published(master):
    """Attach a metrics registry to ``master``'s plan cache; returns the
    registry and every value its hits counter is updated to."""
    registry, updates = MetricsRegistry(), []
    registry.on_update(lambda name, _kind, value: updates.append(value)
                       if name == "sql.plancache.hits" else None)
    master.engine.plan_cache.attach_metrics(registry)
    return registry, updates


@pytest.mark.parametrize("binlog_format", ["statement", "row"])
def test_install_with_metrics_equals_executing_the_statements(
        binlog_format):
    # The install credits the load's trailing hits at once; a registry
    # still sees one counter update per hit, as executing makes.
    load(150, 4, binlog_format)                     # build the image
    (_tables, statements, rng_state), = loader._IMAGES.values()
    master = make_master(binlog_format)
    registry, updates = hits_published(master)
    rng = RandomStreams(4).stream("loader")
    state = load_initial_data(master, 150, rng)
    reference = make_master(binlog_format)
    reference_registry, reference_updates = hits_published(reference)
    for template, params, _committed in statements:
        reference.admin(template, params, database=CLOUDSTONE_DATABASE)
    hits = reference_registry.counter("sql.plancache.hits").value
    assert hits > 1000
    assert registry.counter("sql.plancache.hits").value == hits
    assert updates == reference_updates and len(updates) == hits
    reference_rng = RandomStreams(4).stream("loader")
    reference_rng.bit_generator.state = rng_state
    assert observed(master, state, rng) == observed(reference, state,
                                                    reference_rng)


@pytest.mark.parametrize("capacity", [0, 3])
def test_install_on_a_tiny_plan_cache_equals_executing(capacity):
    # Templates evicted before the load ends cannot be credited: the
    # install replays them one by one, misses and evictions included.
    load(150, 4, "statement")
    (_tables, statements, _rng_state), = loader._IMAGES.values()
    master, reference = make_master(), make_master()
    master.engine.plan_cache = PlanCache(capacity=capacity)
    reference.engine.plan_cache = PlanCache(capacity=capacity)
    load_initial_data(master, 150, RandomStreams(4).stream("loader"))
    for template, params, _committed in statements:
        reference.admin(template, params, database=CLOUDSTONE_DATABASE)
    cache, reference_cache = (server.engine.plan_cache
                              for server in (master, reference))
    assert (cache.hits, cache.misses, cache.evictions, list(cache._exact)) \
        == (reference_cache.hits, reference_cache.misses,
            reference_cache.evictions, list(reference_cache._exact))
    assert cache.misses > len({template for template, _p, _c in statements})


def test_no_install_strips_a_literal(monkeypatch):
    # The image records (template, params): neither building it nor
    # replaying it onto a master's plan cache runs the fingerprint regex.
    from repro.sql import plancache
    monkeypatch.setattr(plancache, "fingerprint", None)
    _, built = load(150, 0, "statement")
    _, cached = load(150, 0, "statement")
    assert cached == built and built["plan_cache"][0] > 1000


def test_mutating_one_master_never_shows_in_the_next_install():
    first, built = load(150, 0, "statement")
    first.admin("UPDATE events SET title = 'edited' WHERE id = 1")
    first.admin("UPDATE users SET id = 9001 WHERE id = 2")
    first.admin("DELETE FROM event_tags WHERE event_id = 3")
    first.admin("INSERT INTO tags (name) VALUES ('brand-new')")
    first.admin("DROP TABLE comments")
    assert first.engine.checksum() != built["checksum"]
    second, cached = load(150, 0, "statement")
    assert cached == built
    # ... and the second master's writes do not reach the first.
    before = first.engine.checksum()
    second.admin("DELETE FROM attendees")
    assert first.engine.checksum() == before
    _, third = load(150, 0, "statement")
    assert third == built


def test_slaves_synced_from_an_installed_master_are_independent():
    sim = Simulator()
    manager = ReplicationManager(sim, Cloud(sim, RandomStreams(9)),
                                 ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT)
    load_initial_data(master, 60, RandomStreams(5).stream("loader"))
    slave = manager.add_slave(MASTER_PLACEMENT)
    assert manager.verify_consistency()
    slave.engine.execute("DELETE FROM users WHERE id = 1")
    assert not manager.verify_consistency()
    assert master.admin("SELECT COUNT(*) FROM users").result.scalar() == 60


def test_image_pins_no_finished_run(monkeypatch):
    master, built = load(150, 0, "statement")
    # Compiled plans outlive a run on the shared plan cache: one that
    # called a server function (a closure over clock -> instance ->
    # simulator) must have taken it as an argument, not captured it.
    plans = master.engine.plan_cache
    stamp = "UPDATE events SET created = USEC_NOW() + 1 WHERE id = 3"
    for _sighting in ("templated", "verbatim"):
        assert master.admin(stamp).profile.rows_affected == 1
    assert master.admin("SELECT id FROM events WHERE id = 3 "
                        "AND created > USEC_NOW()").result.scalar() == 3
    simulator = weakref.ref(master.sim)
    instance = weakref.ref(master.instance)
    del master
    gc.collect()
    assert plans.prepare(stamp)[0].plan.assignments  # compiled, and kept
    assert simulator() is None and instance() is None
    assert len(loader._IMAGES) == 1
    # Still cached: the next install does not build.
    monkeypatch.setattr(loader, "_build_image", None)
    _, cached = load(150, 0, "statement")
    assert cached == built


def test_only_the_newest_images_are_kept():
    for data_size in range(3, 3 + loader._MAX_IMAGES + 2):
        load(data_size, 0, "statement")
    assert [key[0] for key in loader._IMAGES] \
        == list(range(5, 5 + loader._MAX_IMAGES))


def test_loading_twice_into_one_master_is_refused():
    master, _ = load(20, 0, "statement")
    head = master.binlog.head_position
    with pytest.raises(SchemaError):
        load_initial_data(master, 20, RandomStreams(0).stream("loader"))
    assert master.binlog.head_position == head


@pytest.mark.parametrize("binlog_format", ["statement", "row"])
def test_a_transaction_s_events_share_one_commit_wallclock(binlog_format):
    master, _ = load(20, 0, binlog_format, traced=True)
    head = master.binlog.head_position
    for sql in ("BEGIN", "INSERT INTO tags (name) VALUES ('late')",
                "UPDATE users SET username = 'renamed' WHERE id = 3",
                "DELETE FROM comments WHERE id = 1", "COMMIT"):
        master.admin(sql, database=CLOUDSTONE_DATABASE)
    events = master.binlog.events[head:]
    assert [(event.commit_wallclock, event.commit_simtime)
            for event in events] == [(master.clock.now(), 7.25)] * 3

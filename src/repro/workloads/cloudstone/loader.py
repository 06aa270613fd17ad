"""Initial data loader.

The paper fixes the initial data size at **300** (50/50 experiments)
and **600** (80/20 experiments); we interpret the data size as the
number of pre-loaded *events*, with a matching user population, the
fixed tag vocabulary, and realistic per-event attendee/comment/tag
fan-out.  The paper's runs start "with a pre-loaded, fully-synchronized
database": the dataset is a pure function of the data size, the binlog
format and the generator's state, so it is built once on a private
scratch engine and cached as an *image*; every master gets a
copy-on-write clone of it **before** slaves attach, so slaves inherit
the data via snapshot.
"""

from __future__ import annotations

import pickle

import numpy as np

from ...db.engine import StorageEngine
from ...db.errors import SchemaError
from ...sql.plancache import PlanCache
from .operations import (INSERT_ATTENDEE, INSERT_COMMENT, INSERT_EVENT,
                         INSERT_EVENT_TAG, INSERT_USER)
from .schema import CLOUDSTONE_DATABASE, SCHEMA_STATEMENTS, TAG_COUNT
from .state import WorkloadState

__all__ = ["load_initial_data"]

#: The newest few images (:class:`_Image`) by (data size, binlog
#: format, generator state).  An image must reference nothing
#: simulator-bound, or caching it would pin a whole finished run.
_IMAGES: dict[tuple, "_Image"] = {}
_MAX_IMAGES = 4

_INSERT_TAG = "INSERT INTO tags (name) VALUES (?)"
_SET_ATTENDEE_COUNT = "UPDATE events SET attendee_count = ? WHERE id = ?"


class _Image(tuple):
    """``(tables, statements, generator end state)`` of one built
    dataset, each statement ``(template, params, what it committed)``,
    with what every install needs derived from it once."""

    def __new__(cls, tables: dict, statements: list, rng_state: dict):
        image = super().__new__(cls, (tables, statements, rng_state))
        #: Everything the load committed, in order: the binlog's input.
        image.commits = [commit for _template, _params, committed
                         in statements for commit in committed]
        #: Each template with the params of its first statement, in
        #: order of first use: the only statements of a replay that
        #: can miss a plan cache that evicts nothing.
        firsts: dict[str, tuple] = {}
        for template, params, _committed in statements:
            firsts.setdefault(template, params)
        image.firsts = list(firsts.items())
        #: Every template in order of last use.
        image.last_used = list(dict.fromkeys(
            template for template, _params, _committed
            in reversed(statements)))[::-1]
        return image


def _build_image(data_size: int, binlog_format: str,
                 rng: np.random.Generator, time_horizon: float) -> _Image:
    """Create the schema and load ``data_size`` events on a scratch
    engine — one without SQL functions: a server's functions close
    over its clock and simulator, and the loader's statements call
    none."""
    engine = StorageEngine(default_database=CLOUDSTONE_DATABASE,
                           plan_cache=PlanCache())
    engine.binlog_format = binlog_format
    statements = []

    def admin(sql, *params):
        result = engine.execute(sql, params, database=CLOUDSTONE_DATABASE)
        statements.append((sql, params, tuple(result.committed)))

    for statement in SCHEMA_STATEMENTS:
        admin(statement)
    for tag_index in range(1, TAG_COUNT + 1):
        admin(_INSERT_TAG, f"tag{tag_index:02d}")
    for user_id in range(1, data_size + 1):
        admin(INSERT_USER, f"user{user_id:05d}", 0.0, 1)
    for event_id in range(1, data_size + 1):
        owner = int(rng.integers(1, data_size + 1))
        event_date = float(rng.uniform(0.0, time_horizon))
        admin(INSERT_EVENT, owner, f"Event number {event_id}",
              f"Description of event {event_id}", 0.0, event_date, 0)
        for _ in range(int(rng.integers(1, 4))):  # 1-3 tags
            admin(INSERT_EVENT_TAG, event_id,
                  int(rng.integers(1, TAG_COUNT + 1)))
        n_attendees = int(rng.integers(0, 6))
        for _ in range(n_attendees):
            admin(INSERT_ATTENDEE, event_id,
                  int(rng.integers(1, data_size + 1)))
        if n_attendees:
            admin(_SET_ATTENDEE_COUNT, n_attendees, event_id)
        for _ in range(int(rng.integers(0, 3))):  # 0-2 comments
            admin(INSERT_COMMENT, event_id,
                  int(rng.integers(1, data_size + 1)),
                  f"A comment on event {event_id}", 0.0)
    return _Image(engine.tables, statements, rng.bit_generator.state)


def load_initial_data(master, data_size: int,
                      rng: np.random.Generator) -> WorkloadState:
    """Install the ``data_size``-event dataset on ``master`` (anything
    with an ``engine``); returns the workload state describing it.

    The engine, its commit listener (the master's binlog), its plan
    cache and ``rng`` end up exactly as if every statement of the load
    had been executed on ``master`` itself.
    """
    if data_size < 1:
        raise ValueError(f"data_size must be >= 1, got {data_size}")
    state = WorkloadState(n_users=data_size, n_events=data_size,
                          n_tags=TAG_COUNT)
    engine = master.engine
    key = (data_size, engine.binlog_format,
           pickle.dumps(rng.bit_generator.state))
    if key not in _IMAGES:
        if len(_IMAGES) >= _MAX_IMAGES:
            del _IMAGES[next(iter(_IMAGES))]  # the oldest
        _IMAGES[key] = _build_image(data_size, engine.binlog_format, rng,
                                    state.time_horizon)
    image = _IMAGES[key]
    tables, statements, rng_state = image

    for name in tables:
        if name in engine.tables:
            raise SchemaError(f"table {name!r} already exists")
    engine.databases.add(CLOUDSTONE_DATABASE)
    engine.tables.update((name, table.clone())  # copy-on-write: O(1)
                         for name, table in tables.items())
    cache, listener = engine.plan_cache, engine.commit_listener
    if cache is not None:
        # Same content, LRU order and hit/miss counters as executing.
        # When no replay of the load can evict, each template's first
        # statement is the only one that can miss, and the rest are
        # hits, credited at once; otherwise replay it one by one.
        if len(cache) + len(image.firsts) <= cache.capacity:
            for template, params in image.firsts:
                cache.prepare(template, params)
            cache.credit_hits(image.last_used,
                              len(statements) - len(image.firsts))
        else:
            for template, params, _committed in statements:
                cache.prepare(template, params)
    if listener is not None:
        # Every commit of the load happens at this one sim instant: one
        # call hands the listener (the master's binlog) all of them.
        listener(image.commits)
    engine.statements_executed += len(statements)
    rng.bit_generator.state = rng_state
    return state

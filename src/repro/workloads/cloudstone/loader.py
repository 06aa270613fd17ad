"""Initial data loader.

The paper fixes the initial data size at **300** (50/50 experiments)
and **600** (80/20 experiments); we interpret the data size as the
number of pre-loaded *events*, with a matching user population, the
fixed tag vocabulary, and realistic per-event attendee/comment/tag
fan-out.  The paper's runs start "with a pre-loaded, fully-synchronized
database": the dataset is a pure function of the data size, the binlog
format and the generator's state, so it is built once on a private
scratch engine and cached as an *image*; every master gets a clone of
it **before** slaves attach, so slaves inherit the data via snapshot.
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

#: The newest few images by (data size, binlog format, generator
#: state): ``(tables, [(template, params, what it committed)],
#: generator end state)``.  An image must reference nothing
#: simulator-bound, or caching it would pin a whole finished run.
_IMAGES: dict[tuple, tuple] = {}
_MAX_IMAGES = 4

_INSERT_TAG = "INSERT INTO tags (name) VALUES (?)"
_SET_ATTENDEE_COUNT = "UPDATE events SET attendee_count = ? WHERE id = ?"


def _build_image(data_size: int, binlog_format: str,
                 rng: np.random.Generator, time_horizon: float) -> tuple:
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
    return engine.tables, statements, rng.bit_generator.state


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
    tables, statements, rng_state = _IMAGES[key]

    for name in tables:
        if name in engine.tables:
            raise SchemaError(f"table {name!r} already exists")
    engine.databases.add(CLOUDSTONE_DATABASE)
    engine.tables.update((name, table.clone())
                         for name, table in tables.items())
    cache, listener = engine.plan_cache, engine.commit_listener
    for template, params, committed in statements:
        # Same content, LRU order and hit/miss counters as executing.
        if cache is not None:
            cache.prepare(template, params)
        if listener is not None:
            listener(list(committed))
    engine.statements_executed += len(statements)
    rng.bit_generator.state = rng_state
    return state

"""Cloudstone operations.

Each operation is the database-tier footprint of one user action on
the social-events site — the business logic the paper re-implemented
so "a user's operation can be processed directly at the database tier
without any intermediate interpretation at the web server tier"
(§III-A).  A read operation issues only SELECTs and runs entirely on
one slave; a write operation mixes validation reads with its writes
and runs entirely on the master (only its write statements replicate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .state import WorkloadState

__all__ = ["Operation", "READ_OPERATIONS", "WRITE_OPERATIONS",
           "operation_by_name"]


@dataclass(frozen=True)
class Operation:
    """One user action: a named list of ``(template, params)``."""

    name: str
    is_write: bool
    build: Callable[[WorkloadState, np.random.Generator],
                    list[tuple[str, tuple]]]
    on_complete: Callable[[WorkloadState], None] = lambda state: None


# A statement is a ``?`` template plus a tuple of plain Python values, as
# a JDBC client holds it.  Each template is byte for byte what
# ``plancache.fingerprint`` makes of the literal text (``LIMIT n`` stays
# inline), so the master's rendered binlog text finds the same plan.

# ------------------------------------------------------------------ reads
_EVENT_BY_ID = "SELECT * FROM events WHERE id = ?"
_EVENT_ATTENDEES = ("SELECT u.username FROM attendees a JOIN users u "
                    "ON u.id = a.user_id WHERE a.event_id = ?")
_EVENT_COMMENTS = ("SELECT * FROM comments WHERE event_id = ? "
                   "ORDER BY created DESC LIMIT 10")
_EVENT_TAGS = ("SELECT t.name FROM event_tags et JOIN tags t "
               "ON t.id = et.tag_id WHERE et.event_id = ?")
_USER_SUMMARY = "SELECT username, events_created FROM users WHERE id = ?"
_UPCOMING_EVENTS = ("SELECT id, title, event_date, attendee_count "
                    "FROM events WHERE event_date BETWEEN ? AND ? "
                    "ORDER BY event_date LIMIT 10")
_ALL_TAGS = "SELECT * FROM tags ORDER BY id"
_EVENTS_BY_TAG = ("SELECT e.id, e.title, e.event_date FROM event_tags et "
                  "JOIN events e ON e.id = et.event_id "
                  "WHERE et.tag_id = ? ORDER BY e.event_date LIMIT 10")
_USER_BY_ID = "SELECT * FROM users WHERE id = ?"
_EVENTS_OWNED = ("SELECT id, title, event_date FROM events WHERE owner = ? "
                 "ORDER BY event_date DESC LIMIT 10")
_EVENTS_ATTENDED = ("SELECT e.title FROM attendees a JOIN events e "
                    "ON e.id = a.event_id WHERE a.user_id = ? LIMIT 10")
_COUNT_EVENTS = ("SELECT COUNT(*) FROM events WHERE event_date "
                 "BETWEEN ? AND ?")


def _as_sent(value: float, places: int) -> float:
    """``value`` as its ``places``-decimal SQL literal reads back."""
    return float(f"{value:.{places}f}")


def _view_event_detail(state, rng):
    event = (state.random_event(rng),)
    return [(_EVENT_BY_ID, event), (_EVENT_ATTENDEES, event),
            (_EVENT_COMMENTS, event), (_EVENT_TAGS, event),
            (_USER_SUMMARY, event)]


def _browse_statements(state, rng):
    low, high = state.random_date_window(rng, fraction=0.15)
    return [(_UPCOMING_EVENTS, (_as_sent(low, 1), _as_sent(high, 1))),
            (_ALL_TAGS, ())]


def _search_events_by_tag(state, rng):
    return [(_EVENTS_BY_TAG, (state.random_tag(rng),))]


def _view_user_profile(state, rng):
    user = (state.random_user(rng),)
    return [(_USER_BY_ID, user), (_EVENTS_OWNED, user),
            (_EVENTS_ATTENDED, user)]


def _count_events(state, rng):
    low, high = state.random_date_window(rng, fraction=0.25)
    return [(_COUNT_EVENTS, (_as_sent(low, 1), _as_sent(high, 1)))]


# ----------------------------------------------------------------- writes
INSERT_USER = ("INSERT INTO users (username, created, events_created) "
               "VALUES (?, ?, ?)")
INSERT_EVENT = ("INSERT INTO events (owner, title, description, created, "
                "event_date, attendee_count) VALUES (?, ?, ?, ?, ?, ?)")
INSERT_EVENT_TAG = "INSERT INTO event_tags (event_id, tag_id) VALUES (?, ?)"
INSERT_ATTENDEE = "INSERT INTO attendees (event_id, user_id) VALUES (?, ?)"
INSERT_COMMENT = ("INSERT INTO comments (event_id, user_id, body, created) "
                  "VALUES (?, ?, ?, ?)")
_OWNER_CHECK = "SELECT id, events_created FROM users WHERE id = ?"
_INSERT_TWO_EVENT_TAGS = ("INSERT INTO event_tags (event_id, tag_id) "
                          "VALUES (?, ?), (?, ?)")
_BUMP_EVENTS_CREATED = ("UPDATE users SET events_created = "
                        "events_created + ? WHERE id = ?")
_EVENT_CHECK = "SELECT id, attendee_count FROM events WHERE id = ?"
_BUMP_ATTENDEE_COUNT = ("UPDATE events SET attendee_count = "
                        "attendee_count + ? WHERE id = ?")
_EVENT_EXISTS = "SELECT id FROM events WHERE id = ?"
_TAG_EXISTS = "SELECT id FROM tags WHERE id = ?"


def _create_event(state, rng):
    owner = state.random_user(rng)
    date = state.random_event_date(rng)
    tag_a = state.random_tag(rng)
    tag_b = state.random_tag(rng)
    # state.n_events + 1 approximates the insert's auto-increment id;
    # under concurrent creates it may name a sibling's event, which is
    # still a valid (and replication-deterministic) row.
    new_event = state.n_events + 1
    return [
        (_OWNER_CHECK, (owner,)),
        (INSERT_EVENT, (owner, "New event", "A freshly created event",
                        _as_sent(state.now(), 6), _as_sent(date, 1), 0)),
        (_INSERT_TWO_EVENT_TAGS, (new_event, tag_a, new_event, tag_b)),
        (_BUMP_EVENTS_CREATED, (1, owner)),
    ]


def _join_event(state, rng):
    user = state.random_user(rng)
    event = state.random_event(rng)
    return [(_EVENT_CHECK, (event,)), (INSERT_ATTENDEE, (event, user)),
            (_BUMP_ATTENDEE_COUNT, (1, event))]


def _add_comment(state, rng):
    user = state.random_user(rng)
    event = state.random_event(rng)
    return [(_EVENT_EXISTS, (event,)),
            (INSERT_COMMENT, (event, user, "What a great event this will be",
                              _as_sent(state.now(), 6)))]


def _tag_event(state, rng):
    event = state.random_event(rng)
    tag = state.random_tag(rng)
    return [(_TAG_EXISTS, (tag,)), (INSERT_EVENT_TAG, (event, tag))]


def _create_user(state, rng):
    suffix = int(rng.integers(0, 10**9))
    return [(INSERT_USER, (f"newuser{suffix:09d}",
                           _as_sent(state.now(), 6), 0))]


READ_OPERATIONS: list[tuple[Operation, float]] = [
    (Operation("view_event_detail", False, _view_event_detail), 0.35),
    (Operation("browse_upcoming_events", False, _browse_statements), 0.25),
    (Operation("search_events_by_tag", False, _search_events_by_tag), 0.20),
    (Operation("view_user_profile", False, _view_user_profile), 0.10),
    (Operation("count_events_in_window", False, _count_events), 0.10),
]

WRITE_OPERATIONS: list[tuple[Operation, float]] = [
    (Operation("create_event", True, _create_event,
               on_complete=lambda s: s.note_event_created()), 0.30),
    (Operation("join_event", True, _join_event), 0.35),
    (Operation("add_comment", True, _add_comment), 0.20),
    (Operation("tag_event", True, _tag_event), 0.10),
    (Operation("create_user", True, _create_user,
               on_complete=lambda s: s.note_user_created()), 0.05),
]


def operation_by_name(name: str) -> Operation:
    for operation, _weight in READ_OPERATIONS + WRITE_OPERATIONS:
        if operation.name == name:
            return operation
    raise KeyError(f"unknown operation {name!r}")

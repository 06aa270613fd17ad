"""The Cloudstone social-events-calendar schema.

Cloudstone models a Web 2.0 social events site (Olio): users create
events, tag them, attend them and comment on them.  This is the schema
the customized benchmark of the paper drives directly at the database
tier (the web tier was removed, §III-A).
"""

from __future__ import annotations

__all__ = ["CLOUDSTONE_DATABASE", "SCHEMA_STATEMENTS", "TAG_COUNT"]

CLOUDSTONE_DATABASE = "cloudstone"

#: Number of distinct tags in the tag vocabulary (Olio uses a fixed
#: tag cloud).
TAG_COUNT = 40

SCHEMA_STATEMENTS = [
    f"CREATE DATABASE IF NOT EXISTS {CLOUDSTONE_DATABASE}",
    "CREATE TABLE users ("
    " id INTEGER PRIMARY KEY AUTO_INCREMENT,"
    " username VARCHAR(64) NOT NULL,"
    " created DOUBLE,"
    " events_created INTEGER DEFAULT 0)",
    "CREATE TABLE events ("
    " id INTEGER PRIMARY KEY AUTO_INCREMENT,"
    " owner INTEGER NOT NULL,"
    " title VARCHAR(128) NOT NULL,"
    " description TEXT,"
    " created DOUBLE,"
    " event_date DOUBLE,"
    " attendee_count INTEGER DEFAULT 0)",
    "CREATE INDEX idx_events_owner ON events (owner)",
    "CREATE INDEX idx_events_date ON events (event_date)",
    "CREATE TABLE tags ("
    " id INTEGER PRIMARY KEY AUTO_INCREMENT,"
    " name VARCHAR(32) NOT NULL)",
    "CREATE UNIQUE INDEX ux_tags_name ON tags (name)",
    "CREATE TABLE event_tags ("
    " id INTEGER PRIMARY KEY AUTO_INCREMENT,"
    " event_id INTEGER NOT NULL,"
    " tag_id INTEGER NOT NULL)",
    "CREATE INDEX idx_event_tags_event ON event_tags (event_id)",
    "CREATE INDEX idx_event_tags_tag ON event_tags (tag_id)",
    "CREATE TABLE attendees ("
    " id INTEGER PRIMARY KEY AUTO_INCREMENT,"
    " event_id INTEGER NOT NULL,"
    " user_id INTEGER NOT NULL)",
    "CREATE INDEX idx_attendees_event ON attendees (event_id)",
    "CREATE INDEX idx_attendees_user ON attendees (user_id)",
    "CREATE TABLE comments ("
    " id INTEGER PRIMARY KEY AUTO_INCREMENT,"
    " event_id INTEGER NOT NULL,"
    " user_id INTEGER NOT NULL,"
    " body TEXT,"
    " created DOUBLE)",
    "CREATE INDEX idx_comments_event ON comments (event_id)",
]

"""Dynamic prong: the runtime race sanitizer — and the both-prongs
acceptance test over the deliberately raced pool fixture."""

import os

from repro.analysis import check_paths
from repro.analysis.config import LintConfig
from repro.analysis.race import RaceSanitizer
from repro.sim.kernel import Simulator

from tests.analysis.race.fixtures.leaky_pool import (LeakyPool, start,
                                                     worker)

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "leaky_pool.py")


# ---------------------------------------------------------------------------
# Acceptance: the same raced field is caught by BOTH prongs.
# ---------------------------------------------------------------------------

def test_static_prong_flags_leaky_pool():
    # Default config (no per-path ignores): the specimen must fire.
    findings = check_paths([FIXTURE], config=LintConfig())["simrace"]
    assert [f.rule_id for f in findings] == ["RACE001"]
    assert "available" in findings[0].message


def test_dynamic_prong_reports_the_lost_update():
    sim = Simulator()
    sanitizer = RaceSanitizer().attach(sim)
    pool = LeakyPool()
    sanitizer.instrument(pool, ("available",), "pool")
    start(sim, pool)
    sim.run()
    # Both workers read 5, yield, then write 4: the second write
    # clobbers the first.  Exactly one report, naming both parties.
    assert len(sanitizer.reports) == 1
    report = sanitizer.reports[0]
    assert report.field_path == "pool.available"
    assert {report.writer, report.other} == {"worker-0", "worker-1"}
    assert report.time == 1.0 and report.read_time == 0.0
    assert pool.available == 4  # the lost update is observable
    rendered = report.render()
    assert "pool.available" in rendered and "overwriting" in rendered


# ---------------------------------------------------------------------------
# Sanitizer mechanics.
# ---------------------------------------------------------------------------

def _run(builder):
    """Run ``builder(sim, sanitizer)`` to set up processes, then
    simulate to completion and return the sanitizer."""
    sim = Simulator()
    sanitizer = RaceSanitizer().attach(sim)
    builder(sim, sanitizer)
    sim.run()
    return sanitizer


def test_blind_writes_never_report():
    # A publisher that writes without reading (the SQL-thread shape)
    # must stay silent no matter how the writes interleave.
    def build(sim, sanitizer):
        pool = LeakyPool()
        sanitizer.instrument(pool, ("available",), "pool")

        def publisher(value):
            yield sim.timeout(1.0)
            pool.available = value
            yield sim.timeout(1.0)
            pool.available = value + 10

        sim.process(publisher(1), name="pub-a")
        sim.process(publisher(2), name="pub-b")

    assert _run(build).reports == []


def test_read_and_write_in_same_step_is_clean():
    # Re-reading after the yield puts read and write in one epoch:
    # the classic correct pattern must not report.
    def build(sim, sanitizer):
        pool = LeakyPool()
        sanitizer.instrument(pool, ("available",), "pool")

        def careful():
            yield sim.timeout(1.0)
            pool.available = pool.available - 1

        sim.process(careful(), name="c-0")
        sim.process(careful(), name="c-1")

    assert _run(build).reports == []


def test_stale_read_without_conflict_is_clean():
    # One lone worker yields between read and write, but nobody else
    # writes: no version movement, no report.
    def build(sim, sanitizer):
        pool = LeakyPool()
        sanitizer.instrument(pool, ("available",), "pool")
        sim.process(worker(sim, pool), name="solo")

    assert _run(build).reports == []


def test_uninstrumented_fields_bypass_the_sanitizer():
    def build(sim, sanitizer):
        pool = LeakyPool()
        sanitizer.instrument(pool, ("available",), "pool")

        def toucher():
            label = pool.label
            yield sim.timeout(1.0)
            # Deliberately raced: the point is that the sanitizer
            # ignores it because 'label' is not instrumented.
            pool.label = label + "!"  # simlint: disable=RACE001

        sim.process(toucher(), name="t-0")
        sim.process(toucher(), name="t-1")

    sanitizer = _run(build)
    assert sanitizer.reports == []
    # No state row is ever created for the uninstrumented field —
    # its lost update (both touchers read "pool") goes unreported.
    (pool,) = sanitizer._keepalive
    assert "label" not in sanitizer._state[id(pool)]
    assert pool.label == "pool!"


def test_instrumentation_preserves_class_identity_surface():
    pool = LeakyPool()
    sanitizer = RaceSanitizer()
    sanitizer.instrument(pool, ("available",), "pool")
    assert isinstance(pool, LeakyPool)
    assert type(pool).__name__ == "LeakyPool"
    assert pool.available == 5  # reads outside a process still work
    pool.available = 7
    assert pool.available == 7


def test_summary_shape():
    sim = Simulator()
    sanitizer = RaceSanitizer().attach(sim)
    pool = LeakyPool()
    sanitizer.instrument(pool, ("available",), "pool")
    start(sim, pool)
    sim.run()
    summary = sanitizer.summary()
    assert summary["instrumented"] == ["pool"]
    assert summary["reportCount"] == 1
    (entry,) = summary["reports"]
    assert entry["fieldPath"] == "pool.available"
    assert set(entry) == {"time", "fieldPath", "writer", "other",
                          "readTime"}

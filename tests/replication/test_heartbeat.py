"""Heartbeat plugin and replication-delay estimator tests."""

import math

import pytest

from repro.cloud import MASTER_PLACEMENT
from repro.replication import (HEARTBEAT_TABLE, HeartbeatPlugin,
                               average_relative_delay_ms, collect_delays)
from tests.replication.conftest import EU_WEST


@pytest.fixture
def heartbeat(sim, manager, master):
    plugin = HeartbeatPlugin(sim, master, interval=1.0)
    plugin.install()
    return plugin


def test_install_creates_schema(heartbeat, master):
    assert master.admin(
        f"SELECT COUNT(*) FROM {HEARTBEAT_TABLE}").result.scalar() == 0


def test_plugin_inserts_one_row_per_interval(sim, heartbeat, master):
    heartbeat.start()
    sim.run(until=10.5)
    count = master.admin(
        f"SELECT COUNT(*) FROM {HEARTBEAT_TABLE}").result.scalar()
    assert count == 10
    assert heartbeat.inserted_at[1] == pytest.approx(1.0, abs=0.2)


def test_stop_halts_inserts(sim, heartbeat, master):
    heartbeat.start()
    sim.run(until=5.5)
    heartbeat.stop()
    sim.run(until=20.0)
    count = master.admin(
        f"SELECT COUNT(*) FROM {HEARTBEAT_TABLE}").result.scalar()
    assert count == 5


def test_bad_interval_rejected(sim, master):
    with pytest.raises(ValueError):
        HeartbeatPlugin(sim, master, interval=0.0)


@pytest.mark.parametrize("interval", [-1.0, math.nan, math.inf])
def test_interval_must_be_finite_and_positive(sim, master, interval):
    # NaN used to pass and fail mid-run, at the first beat.
    with pytest.raises(ValueError, match="period"):
        HeartbeatPlugin(sim, master, interval=interval)


def test_double_start_rejected(sim, heartbeat):
    heartbeat.start()
    with pytest.raises(RuntimeError):
        heartbeat.start()


def test_heartbeats_replicate_with_slave_local_timestamps(
        sim, manager, master, heartbeat):
    """The slave's ts column must come from the slave's own clock —
    the paper's measurement mechanism."""
    slave = manager.add_slave(EU_WEST)
    # Make the slave clock run visibly ahead so the effect is obvious.
    slave.instance.clock.step_to_error(5.0)
    heartbeat.start()
    sim.run(until=4.5)
    heartbeat.stop()
    sim.run(until=10.0)
    samples = collect_delays(heartbeat, slave)
    assert len(samples) == 4
    for sample in samples:
        # ~5 s clock skew plus ~0.17 s propagation
        assert 4.9 < sample.delay_ms / 1000.0 < 5.5


def test_collect_delays_windowing(sim, manager, master, heartbeat):
    slave = manager.add_slave(MASTER_PLACEMENT)
    heartbeat.start()
    sim.run(until=10.5)
    heartbeat.stop()
    sim.run(until=12.0)
    all_samples = collect_delays(heartbeat, slave)
    windowed = collect_delays(heartbeat, slave, window_start=3.0,
                              window_end=7.0)
    assert len(all_samples) == 10
    assert len(windowed) == 4
    assert all(3.0 <= s.inserted_simtime < 7.0 for s in windowed)


def test_unapplied_heartbeats_are_censored(sim, manager, master, heartbeat):
    slave = manager.add_slave(EU_WEST)
    heartbeat.start()
    sim.run(until=5.0)
    # Advance to just past the *next* insert: its ~173 ms flight to
    # eu-west means it cannot have been applied yet.
    count_before = len(heartbeat.inserted_at)
    while len(heartbeat.inserted_at) == count_before:
        sim.step()
    sim.run(until=sim.now + 0.05)
    samples = collect_delays(heartbeat, slave)
    assert len(samples) < len(heartbeat.inserted_at)


def test_average_relative_delay_cancels_clock_skew(sim, manager, master,
                                                   heartbeat):
    slave = manager.add_slave(MASTER_PLACEMENT)
    skew = 0.25  # constant 250 ms skew
    slave.instance.clock.step_to_error(skew)
    master.instance.clock.step_to_error(0.0)
    heartbeat.start()
    sim.run(until=30.5)
    heartbeat.stop()
    sim.run(until=32.0)
    samples = collect_delays(heartbeat, slave)
    baseline = samples[:15]
    loaded = samples[15:]
    relative = average_relative_delay_ms(loaded, baseline)
    # No load in either window: the relative delay must be ~0 even
    # though raw delays carry the 250 ms skew.
    raw = sum(s.delay_ms for s in samples) / len(samples)
    assert raw > 200.0
    assert abs(relative) < 5.0


def test_trimming_discards_outliers():
    from repro.replication import HeartbeatSample

    def sample(delay_s):
        return HeartbeatSample(1, 0.0, delay_s, 0.0)

    baseline = [sample(0.001)] * 20
    loaded = [sample(0.002)] * 19 + [sample(9.0)]  # one network spike
    relative = average_relative_delay_ms(loaded, baseline)
    assert relative == pytest.approx(1.0, abs=0.2)


# ------------------------------------------------- estimator edge cases
def test_empty_baseline_raises():
    """No baseline window means no skew reference — the estimator must
    refuse, not silently report a skew-contaminated number."""
    from repro.replication import HeartbeatSample
    loaded = [HeartbeatSample(1, 0.0, 0.002, 0.0)]
    with pytest.raises(ValueError, match="no samples"):
        average_relative_delay_ms(loaded, [])
    with pytest.raises(ValueError, match="no samples"):
        average_relative_delay_ms([], loaded)


def test_single_sample_windows():
    """One heartbeat per window: the 5 % trim floors to zero cut."""
    from repro.replication import HeartbeatSample
    loaded = [HeartbeatSample(2, 10.0, 10.007, 10.0)]
    baseline = [HeartbeatSample(1, 0.0, 0.002, 0.0)]
    relative = average_relative_delay_ms(loaded, baseline)
    assert relative == pytest.approx(5.0)


def test_estimator_with_ntp_disabled(sim, cloud):
    """Without NTP, unchecked drift leaks into the relative delay —
    exactly the paper's Fig. 4 sync-once failure mode.  The estimator
    still computes (it cancels only the *mean* baseline skew)."""
    from repro.cloud import MASTER_PLACEMENT
    from repro.replication import ReplicationManager
    manager = ReplicationManager(sim, cloud, ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT)
    plugin = HeartbeatPlugin(sim, master, interval=1.0)
    plugin.install()
    slave = manager.add_slave(MASTER_PLACEMENT)
    # 100 ms/s of relative drift, far beyond anything NTP would allow.
    slave.instance.clock.drift_rate = 0.1
    plugin.start()
    sim.run(until=20.5)
    plugin.stop()
    sim.run(until=22.0)
    samples = collect_delays(plugin, slave)
    baseline = [s for s in samples if s.inserted_simtime < 10.0]
    loaded = [s for s in samples if s.inserted_simtime >= 10.0]
    relative = average_relative_delay_ms(loaded, baseline)
    # ~10 s between window midpoints at 100 ms/s drift ≈ 1 s apparent
    # delay with *no* load at all.
    assert relative > 500.0


# ------------------------------------------------- binlog position tags
def test_positions_recorded_for_every_heartbeat(sim, heartbeat, master):
    heartbeat.start()
    sim.run(until=5.5)
    heartbeat.stop()
    assert sorted(heartbeat.positions) == [1, 2, 3, 4, 5]
    positions = [heartbeat.positions[i] for i in sorted(heartbeat.positions)]
    assert positions == sorted(positions)
    statements = {event.position: event.statement
                  for event in master.binlog.events}
    for heartbeat_id, position in heartbeat.positions.items():
        assert f"VALUES ({heartbeat_id}, " in statements[position]


def test_positions_survive_interleaved_commits(sim, heartbeat, master):
    """Concurrent writers commit between the heartbeat's append and
    its perform() return; the scan must still find the right event."""
    def writer(sim, master):
        for i in range(200):
            yield from master.perform(
                f"INSERT INTO items (grp, v) VALUES (1, {i})")

    sim.process(writer(sim, master))
    heartbeat.start()
    sim.run(until=10.5)
    heartbeat.stop()
    statements = {event.position: event.statement
                  for event in master.binlog.events}
    # The last heartbeat may still be mid-perform at the horizon (CPU
    # contention with the writer); every *completed* one is tagged.
    assert len(heartbeat.positions) >= 9
    for heartbeat_id, position in heartbeat.positions.items():
        assert f"VALUES ({heartbeat_id}, " in statements[position]


def test_heartbeat_instants_emitted_when_traced(sim, manager, master):
    from repro.obs import Tracer
    sim.tracer = Tracer(sim)
    plugin = HeartbeatPlugin(sim, master, interval=1.0)
    plugin.install()
    plugin.start()
    sim.run(until=3.5)
    plugin.stop()
    instants = [s for s in sim.tracer.spans
                if s.name == "repl.heartbeat"]
    assert len(instants) == 3
    for span in instants:
        assert span.attributes["position"] == \
            plugin.positions[span.attributes["hb_id"]]
        assert span.attributes["inserted"] == \
            plugin.inserted_at[span.attributes["hb_id"]]

"""Tests for instances, the hardware lottery and the Cloud account."""

import numpy as np
import pytest

from repro.cloud import (Cloud, LARGE, MASTER_PLACEMENT,
                         SMALL)
from repro.cloud.instance import draw_instance_hardware
from repro.sim import RandomStreams, Simulator


def make_cloud(seed=0):
    sim = Simulator()
    return sim, Cloud(sim, RandomStreams(seed))


def test_launch_names_and_registry():
    _sim, cloud = make_cloud()
    a = cloud.launch(SMALL, MASTER_PLACEMENT)
    b = cloud.launch(SMALL, MASTER_PLACEMENT, name="master")
    assert a.name == "i-00001"
    assert cloud.instances == {"i-00001": a, "master": b}


def test_duplicate_name_rejected():
    _sim, cloud = make_cloud()
    cloud.launch(SMALL, MASTER_PLACEMENT, name="x")
    with pytest.raises(ValueError):
        cloud.launch(SMALL, MASTER_PLACEMENT, name="x")


def test_terminate_removes_instance():
    _sim, cloud = make_cloud()
    inst = cloud.launch(SMALL, MASTER_PLACEMENT)
    cloud.terminate(inst)
    assert not inst.running
    assert inst.name not in cloud.instances


def test_instance_types():
    assert SMALL.cores == 1
    assert LARGE.cores == 2
    assert LARGE.ecu_per_core > SMALL.ecu_per_core


def test_small_lottery_cov_near_paper():
    """Schad et al. (cited by the paper) report ~21% CoV for small
    instances; the lottery should land in that neighbourhood."""
    streams = RandomStreams(11)
    speeds = []
    for _ in range(4000):
        model, noise = draw_instance_hardware(streams, SMALL)
        speeds.append(model.speed_factor * noise)
    cov = float(np.std(speeds) / np.mean(speeds))
    assert 0.14 < cov < 0.28


def test_large_lottery_tighter_than_small():
    streams = RandomStreams(12)
    small_speeds = [m.speed_factor * n for m, n in
                    (draw_instance_hardware(streams, SMALL)
                     for _ in range(1000))]
    large_speeds = [m.speed_factor * n for m, n in
                    (draw_instance_hardware(streams, LARGE)
                     for _ in range(1000))]
    cov_small = np.std(small_speeds) / np.mean(small_speeds)
    cov_large = np.std(large_speeds) / np.mean(large_speeds)
    assert cov_large < cov_small


def test_compute_charges_cpu_time():
    sim, cloud = make_cloud(seed=1)
    inst = cloud.launch(SMALL, MASTER_PLACEMENT)
    done = []

    def job(sim, inst):
        yield from inst.run_on_cpu(lambda: (None, 0.100))
        done.append(sim.now)

    sim.process(job(sim, inst))
    sim.run()
    expected = 0.100 / inst.effective_speed
    assert done[0] == pytest.approx(expected)
    assert inst.busy_time == pytest.approx(expected)


def test_compute_queues_on_single_core():
    sim, cloud = make_cloud(seed=2)
    inst = cloud.launch(SMALL, MASTER_PLACEMENT)
    finish = []

    def job(sim, inst, tag):
        yield from inst.run_on_cpu(lambda: (None, 0.050))
        finish.append((tag, sim.now))

    sim.process(job(sim, inst, "a"))
    sim.process(job(sim, inst, "b"))
    sim.run()
    (t1, when1), (t2, when2) = finish
    assert when2 == pytest.approx(2 * when1)  # serialized on one core


def test_large_instance_parallelism():
    sim, cloud = make_cloud(seed=3)
    inst = cloud.launch(LARGE, MASTER_PLACEMENT)
    finish = []

    def job(sim, inst):
        yield from inst.run_on_cpu(lambda: (None, 0.050))
        finish.append(sim.now)

    sim.process(job(sim, inst))
    sim.process(job(sim, inst))
    sim.run()
    assert finish[0] == pytest.approx(finish[1])  # ran in parallel


def test_utilization_window():
    sim, cloud = make_cloud(seed=4)
    inst = cloud.launch(SMALL, MASTER_PLACEMENT)

    def jobs(sim, inst):
        while True:
            yield from inst.run_on_cpu(lambda: (None, 0.010))
            yield sim.timeout(inst.service_time(0.010))  # 50% duty

    sim.process(jobs(sim, inst))
    sim.run(until=10.0)
    start, busy0 = sim.now, inst.busy_time
    sim.run(until=110.0)
    util = (inst.busy_time - busy0) / (sim.now - start)
    assert 0.4 < util < 0.6


def test_clock_override_on_launch():
    _sim, cloud = make_cloud(seed=5)
    inst = cloud.launch(SMALL, MASTER_PLACEMENT,
                        offset=0.007, drift_rate=36e-6)
    assert inst.clock.error() == pytest.approx(0.007)
    assert inst.clock.drift_rate == pytest.approx(36e-6)


def test_start_ntp_on_instance():
    sim, cloud = make_cloud(seed=6)
    inst = cloud.launch(SMALL, MASTER_PLACEMENT, offset=0.5)
    cloud.start_ntp(inst, period=1.0)
    sim.run(until=5.0)
    assert abs(inst.clock.error()) < 0.05


def test_placement_helper():
    _sim, cloud = make_cloud()
    p = cloud.placement("eu-west-1a")
    assert p.region == "eu-west-1"


def test_effective_speed_composition():
    sim = Simulator()
    cloud = Cloud(sim, RandomStreams(7))
    inst = cloud.launch(SMALL, MASTER_PLACEMENT)
    assert inst.effective_speed == pytest.approx(
        SMALL.ecu_per_core * inst.cpu_model.speed_factor * inst.host_noise)
    assert "Instance(" in repr(inst)

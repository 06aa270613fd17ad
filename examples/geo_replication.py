#!/usr/bin/env python3
"""Geo-replication: one slave per region, measure what distance costs.

The paper's §IV-B.2 conclusion: "geographic replication would be
applicable in the cloud as long as workload characteristics can be well
managed" — placement adds only a fixed one-way latency to the
replication delay, while workload moves it by orders of magnitude.

This example builds a master in us-east-1a with slaves in the same
zone, a different zone and three different regions, measures the ping
RTT to each, then compares per-slave replication delay under a light
and a heavy write load.

Run:  python examples/geo_replication.py
"""

from repro.cloud import Cloud, MASTER_PLACEMENT
from repro.replication import (HeartbeatPlugin, ReplicationManager,
                               collect_delays)
from repro.metrics import trimmed_mean
from repro.sim import RandomStreams, Simulator

SLAVE_ZONES = ["us-east-1a", "us-east-1b", "eu-west-1a",
               "ap-southeast-1a", "ap-northeast-1a"]


def main():
    sim = Simulator()
    streams = RandomStreams(seed=7)
    cloud = Cloud(sim, streams)
    manager = ReplicationManager(sim, cloud)
    master = manager.create_master(MASTER_PLACEMENT)
    master.admin("CREATE TABLE posts (id INTEGER PRIMARY KEY "
                 "AUTO_INCREMENT, body TEXT)")
    heartbeat = HeartbeatPlugin(sim, master, interval=0.5)
    heartbeat.install()
    slaves = {zone: manager.add_slave(cloud.placement(zone),
                                      name=f"slave-{zone}")
              for zone in SLAVE_ZONES}
    heartbeat.start()

    print("ping from the master's zone (1/2 RTT, median of 100 probes):")
    import numpy as np
    for zone, slave in slaves.items():
        probes = cloud.network.ping(MASTER_PLACEMENT, slave.placement,
                                    100) / 2
        print(f"  {zone:18s} {float(np.median(probes)):7.1f} ms")

    # Light write load, then heavy write load.
    def writer(sim, master, period, count):
        for i in range(count):
            yield from master.perform(
                f"INSERT INTO posts (body) VALUES ('post {i}')")
            yield sim.timeout(period)

    print("\nphase 1: light writes (2/s) for 60 s")
    sim.process(writer(sim, master, period=0.5, count=120))
    sim.run(until=90.0)
    light_window = (0.0, 90.0)

    print("phase 2: heavy writes (40/s) for 60 s")
    sim.process(writer(sim, master, period=0.025, count=2400))
    sim.run(until=220.0)
    heavy_window = (90.0, 160.0)
    heartbeat.stop()
    sim.run(until=400.0)  # drain

    print(f"\n{'slave':26s} {'light-load delay':>17s} "
          f"{'heavy-load delay':>17s}")
    for zone, slave in slaves.items():
        light = [s.delay_ms for s in collect_delays(
            heartbeat, slave, *light_window)]
        heavy = [s.delay_ms for s in collect_delays(
            heartbeat, slave, *heavy_window)]
        print(f"  {zone:24s} {trimmed_mean(light):12.1f} ms "
              f"{trimmed_mean(heavy):14.1f} ms")
    print("\nNote the pattern the paper reports: distance sets the floor "
          "(~one-way latency);\nwrite pressure, not distance, drives the "
          "delay growth.")


if __name__ == "__main__":
    main()

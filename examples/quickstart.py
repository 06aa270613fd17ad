#!/usr/bin/env python3
"""Quickstart: build a replicated database tier and drive it.

Builds the paper's deployment in miniature — one master and two slaves
on simulated EC2 small instances, the Cloudstone schema pre-loaded, a
read/write-splitting proxy and a connection pool — runs a short 50/50
workload, and reports throughput, replication delay and convergence.

Run:  python examples/quickstart.py
"""

from repro.cloud import MASTER_PLACEMENT
from repro.experiments.deployment import Deployment
from repro.replication import collect_delays
from repro.workloads.cloudstone import MIX_50_50, Phases


def main():
    # --- the application-managed database tier --------------------------
    # The paper's bring-up (§III-B), a step at a time; run_experiment
    # and run_drill walk the same handle.
    cell = Deployment(seed=42)
    cell.provision(data_size=100, placements=[MASTER_PLACEMENT] * 2,
                   heartbeat_interval=1.0, pin_master=False,
                   monitor_period=None)
    master, slaves = cell.manager.master, cell.manager.slaves
    print(f"cluster: master={master.name} "
          f"({master.instance.cpu_model.name}), "
          f"slaves={[s.name for s in slaves]}")

    # --- the client stack: proxy, connection pool, 40 users --------------
    phases = Phases(ramp_up=30.0, steady=120.0, ramp_down=15.0)
    cell.start_workload(MIX_50_50, n_users=40, think_time_mean=5.0,
                        phases=phases, pool_size=32)

    # --- run and report ----------------------------------------------------
    cell.run_workload()
    generator = cell.generator
    print(f"\nsteady-stage throughput: "
          f"{generator.steady_throughput():.1f} operations/second")
    print(f"achieved read fraction:  "
          f"{generator.steady_read_write_ratio():.2f} (target 0.50)")
    print(f"mean operation latency:  "
          f"{generator.steady_mean_latency() * 1000:.0f} ms")
    print(f"operations by type:      {dict(generator.op_counts)}")

    verdict = cell.drain_and_verify(timeout=120.0)
    for slave in slaves:
        samples = collect_delays(cell.heartbeat, slave)
        if samples:
            median = sorted(s.delay_ms for s in samples)[len(samples) // 2]
            print(f"{slave.name}: {len(samples)} heartbeats, "
                  f"median raw replication delay {median:.2f} ms")
    print(f"\nall slaves caught up: {verdict['drained']}")
    print(f"replicas consistent with master: {verdict['consistent']}")


if __name__ == "__main__":
    main()

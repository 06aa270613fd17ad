"""Ablation — a large-instance master (paper §VI future work).

"hosting the database servers in EC2 instances with different sizes"
is explicitly left as future work.  The model predicts the 50/50
ceiling is the master's write capacity, so a large master (2 cores x
2 ECU) should raise the ceiling until the (small) slaves bind again.
"""

from repro.cloud import LARGE, SMALL
from repro.workloads.cloudstone import Phases

from conftest import publish, run_once

PHASES = Phases(30.0, 90.0, 15.0)


def run_with_master_size(itype, n_slaves=4, n_users=300, seed=51):
    """PAPER_50_50 cell, overriding the master's instance size."""
    from repro.cloud import Cloud, MASTER_PLACEMENT
    from repro.replication import ConnectionPool, ReplicationManager
    from repro.sim import RandomStreams, Simulator
    from repro.workloads.cloudstone import (LoadGenerator, MIX_50_50,
                                            load_initial_data)
    from repro.cloud.instance import CpuModel

    sim = Simulator()
    streams = RandomStreams(seed)
    cloud = Cloud(sim, streams)
    manager = ReplicationManager(sim, cloud, ntp_period=None)
    master = manager.create_master(MASTER_PLACEMENT, itype=itype)
    master.instance.pin_hardware(CpuModel("Intel Xeon E5430 2.66GHz", 1.0))
    state = load_initial_data(master, 300, streams.stream("loader"))
    for _ in range(n_slaves):
        manager.add_slave(MASTER_PLACEMENT)
    proxy = manager.build_proxy(MASTER_PLACEMENT)
    pool = ConnectionPool(sim, max_active=n_users)
    generator = LoadGenerator(sim, proxy, pool, MIX_50_50, state, streams,
                              n_users=n_users, think_time_mean=7.0,
                              phases=PHASES)
    generator.start()
    sim.run(until=PHASES.total)
    return generator.steady_throughput()


def test_large_master_raises_5050_ceiling(benchmark, results_dir):
    def compare():
        small_tput = run_with_master_size(SMALL)
        large_tput = run_with_master_size(LARGE)
        return small_tput, large_tput

    small_tput, large_tput = run_once(benchmark, compare)
    publish(results_dir, "ablation_instance_size",
            f"50/50, 4 slaves, 300 users:\n"
            f"  m1.small master: {small_tput:.1f} ops/s "
            f"(the paper's ceiling)\n"
            f"  m1.large master: {large_tput:.1f} ops/s\n"
            f"  gain: {large_tput / small_tput:.2f}x — the write ceiling "
            f"belongs to the master")
    assert large_tput > 1.3 * small_tput

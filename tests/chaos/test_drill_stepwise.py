"""A drill driven in slices: replication invariants at every step.

The deterministic precursor of the state machine ROADMAP item 1 asks
for: ``start_drill`` hands over the live cluster, the test advances
its simulator a slice at a time and checks after *every* slice what
the end-of-drill checksum can only check once.
"""

import pytest

from repro.chaos import (DrillConfig, Fault, FaultSchedule, finish_drill,
                         start_drill)
from repro.obs import Observability

SLICE_S = 1.0

#: ROADMAP 1(i): the master dies and every slave is down when it does.
MASTERLESS_RESTART = DrillConfig(
    seed=1, n_users=150, n_slaves=3,
    schedule=FaultSchedule(
        [Fault(at=50, kind="master-crash")]
        + [Fault(at=50.3, kind="slave-crash", target=f"slave-{i}",
                 duration=10) for i in (1, 2, 3)]))


class Invariants:
    """What must hold of the cluster at any instant."""

    def __init__(self, drill):
        self.drill = drill
        self.masters = []           # every master the cluster has had
        self.applied = {}           # slave -> (relay log, applied position)
        self.promotable_since = None

    def check(self):
        cell = self.drill.deployment
        manager, now = cell.manager, cell.sim.now
        serving = manager.master
        if not any(serving is master for master in self.masters):
            self.masters.append(serving)
        online = [master.name for master in self.masters if master.online]
        assert len(online) <= 1, f"t={now}: split brain {online}"

        head = serving.binlog.head_position
        for slave in manager.slaves:
            assert slave.applied_position <= slave.received_position \
                <= head, f"t={now}: {slave.name} ahead of its source"
            # A resync (or a stale restart) starts a fresh relay log.
            relay_log, applied = self.applied.get(slave.name, (None, 0))
            if relay_log is slave.relay_log:
                assert slave.applied_position >= applied, \
                    f"t={now}: {slave.name} went backwards"
            self.applied[slave.name] = (slave.relay_log,
                                        slave.applied_position)

        promotable = any(slave.online and slave.instance.running
                         for slave in manager.slaves)
        if serving.online or not promotable:
            self.promotable_since = None
        elif self.promotable_since is None:
            self.promotable_since = now
        else:
            waited = now - self.promotable_since
            assert waited <= self.drill.config.detect_period + 1.0, \
                f"t={now}: a live replica and no master for {waited} s"


@pytest.mark.parametrize("config", [DrillConfig(), MASTERLESS_RESTART],
                         ids=["canonical", "masterless-restart"])
def test_invariants_hold_after_every_slice(config):
    drill = start_drill(config, observe=Observability())
    cell = drill.deployment
    invariants = Invariants(drill)
    end = cell.workload_start + config.phases.total
    while cell.sim.now + SLICE_S < end:
        cell.sim.run(until=cell.sim.now + SLICE_S)
        invariants.check()
    report = finish_drill(drill).report
    invariants.check()

    assert len(invariants.masters) == 2
    assert report["failover"]["promoted"] == cell.manager.master.name
    assert report["consistency"]["drained"]
    assert report["consistency"]["consistent"]
    assert report["driver"]["errors"] < report["driver"]["operations"]
    assert report["observability"]["droppedSpans"] == 0
    assert cell.pool.active == 0

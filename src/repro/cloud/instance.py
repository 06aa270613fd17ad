"""Simulated EC2 instances.

Two instance sizes appear in the paper: the load generator runs on a
**large** instance ("to avoid any overload on the application tier")
and every database server — master and slaves — runs on a **small**
instance ("so that saturation is expected to be observed early").

Each launch draws a *physical host lottery*: identical small instances
land on different physical CPU models (the paper names an Intel Xeon
E5430 2.66 GHz and an E5507 2.27 GHz) and prior work it cites (Schad et
al. [13]) measured a coefficient of variation of about **21 %** for
small-instance CPU performance.  The lottery plus a per-host noise term
reproduces that spread, and with it the paper's observation that a
slave in a *nearer* zone can still be *slower* than one in a distant
region.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim import RandomStreams, Resource, Simulator
from .clock import LocalClock
from .regions import Placement

__all__ = ["CpuModel", "InstanceType", "SMALL", "LARGE", "Instance",
           "SMALL_CPU_LOTTERY", "LARGE_CPU_LOTTERY"]


@dataclass(frozen=True)
class CpuModel:
    """A physical CPU model and its relative single-core speed."""

    name: str
    speed_factor: float


#: Host lottery for small instances.  Weights and factors are chosen so
#: the resulting speed distribution has a coefficient of variation near
#: the 21 % reported by Schad et al. for EC2 small instances.
SMALL_CPU_LOTTERY: list[tuple[CpuModel, float]] = [
    (CpuModel("Intel Xeon E5430 2.66GHz", 1.00), 0.30),
    (CpuModel("Intel Xeon E5507 2.27GHz", 0.85), 0.30),
    (CpuModel("AMD Opteron 2218 HE 2.6GHz", 0.72), 0.20),
    (CpuModel("AMD Opteron 270 2.0GHz", 0.55), 0.20),
]

#: Large instances show far less variance in the measurements the paper
#: cites; model them as a narrow lottery.
LARGE_CPU_LOTTERY: list[tuple[CpuModel, float]] = [
    (CpuModel("Intel Xeon E5430 2.66GHz", 1.00), 0.70),
    (CpuModel("Intel Xeon E5410 2.33GHz", 0.92), 0.30),
]


@dataclass(frozen=True)
class InstanceType:
    """An EC2-like instance size."""

    name: str
    cores: int
    #: Compute units per core relative to the small-instance reference.
    ecu_per_core: float
    #: Per-launch multiplicative noise (sigma of a normal around 1.0).
    host_noise_sigma: float

    def lottery(self) -> list[tuple[CpuModel, float]]:
        return SMALL_CPU_LOTTERY if self.name == "m1.small" \
            else LARGE_CPU_LOTTERY


SMALL = InstanceType("m1.small", cores=1, ecu_per_core=1.0,
                     host_noise_sigma=0.05)
LARGE = InstanceType("m1.large", cores=2, ecu_per_core=2.0,
                     host_noise_sigma=0.03)


class Instance:
    """A running virtual machine with CPU, a local clock and a placement.

    CPU work is expressed in *reference seconds*: seconds of compute on
    a nominal small-instance core.  ``run_on_cpu(job)`` queues for a
    core and holds it for ``work / effective_speed`` simulated seconds.
    """

    def __init__(self, sim: Simulator, name: str, itype: InstanceType,
                 placement: Placement, cpu_model: CpuModel,
                 host_noise: float, clock: LocalClock):
        self.sim = sim
        self.name = name
        self.itype = itype
        self.placement = placement
        self.cpu_model = cpu_model
        self.host_noise = host_noise
        self.clock = clock
        self.cpu = Resource(sim, capacity=itype.cores)
        self.running = True
        self._busy_time = 0.0
        #: Multiplicative CPU slowdown (1.0 = healthy).  Fault injection
        #: uses this to model a noisy-neighbour / bad-host episode: the
        #: paper's §IV-A variation finding, but transient.
        self.degradation = 1.0
        self.crash_count = 0
        self.total_downtime = 0.0
        self._down_since: float = 0.0

    @property
    def effective_speed(self) -> float:
        """Per-core speed relative to the nominal small-instance core."""
        return self.itype.ecu_per_core * self.cpu_model.speed_factor \
            * self.host_noise * self.degradation

    def pin_hardware(self, cpu_model: CpuModel,
                     host_noise: float = 1.0) -> None:
        """Replace the lottery draw with known hardware.

        Models the paper's §IV-A advice to "validate instance
        performance before deploying applications into the cloud":
        an operator relaunches until a well-performing host is drawn.
        """
        self.cpu_model = cpu_model
        self.host_noise = host_noise

    # -- failure -------------------------------------------------------------
    def crash(self) -> None:
        """Take the VM down (fault injection / host failure).

        In-flight compute finishes draining — the model's analogue of
        connections timing out rather than vanishing instantaneously —
        but callers should reject *new* work at the server layer
        (``DatabaseServer.perform`` refuses once ``online`` is False).
        """
        if not self.running:
            return
        self.running = False
        self.crash_count += 1
        self._down_since = self.sim.now

    def restart(self) -> None:
        """Bring a crashed VM back; volatile state is the caller's
        problem (a database server must re-sync from a snapshot)."""
        if self.running:
            return
        self.running = True
        self.total_downtime += self.sim.now - self._down_since

    def slow_down(self, factor: float) -> None:
        """Degrade the CPU by ``factor`` (0 < factor <= 1)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"degradation factor must be in (0, 1], "
                             f"got {factor}")
        self.degradation = factor

    def restore_speed(self) -> None:
        """End a degradation episode."""
        self.degradation = 1.0

    # -- compute -------------------------------------------------------------
    def service_time(self, work: float) -> float:
        """How long ``work`` reference-seconds hold one core."""
        return work / self.effective_speed

    def run_on_cpu(self, job):
        """Process generator: queue for a core, run ``job`` at service
        start, hold the core for the work it reports.

        ``job()`` returns ``(result, work)``; it executes once the
        request reaches a core — so state changes (and their side
        effects, e.g. binlog appends) become visible only after the
        request has waited its turn, like a real server.
        """
        request = self.cpu.request()
        try:
            # The wait itself sits inside the try: an interrupt thrown
            # in while queued must cancel the claim (releasing an
            # ungranted request does exactly that), or the core count
            # silently shrinks.
            yield request
            result, work = job()
            service = self.service_time(work)
            yield self.sim.timeout(service)
            self._busy_time += service
            return result
        finally:
            self.cpu.release(request)

    # -- introspection ----------------------------------------------------------
    @property
    def busy_time(self) -> float:
        """Cumulative core-seconds of completed work."""
        return self._busy_time

    @property
    def queue_length(self) -> int:
        """Requests waiting for a core right now."""
        return self.cpu.queue_length

    def __repr__(self) -> str:
        return (f"Instance({self.name!r}, {self.itype.name}, "
                f"{self.placement.zone}, cpu={self.cpu_model.name!r})")


def draw_instance_hardware(streams: RandomStreams, itype: InstanceType,
                           stream_name: str = "cloud.lottery"
                           ) -> tuple[CpuModel, float]:
    """Run the physical-host lottery for one launch."""
    lottery = itype.lottery()
    models = [model for model, _weight in lottery]
    weights = [weight for _model, weight in lottery]
    model = streams.choice_weighted(stream_name, models, weights)
    noise = max(0.5, streams.normal(stream_name + ".noise", 1.0,
                                    itype.host_noise_sigma))
    return model, noise

"""The five workloads: inputs from a seed, one pass, cells, checks.

A *pass* calls the same public entry points the figure benches call;
a *cell* is one ``run_experiment`` / ``run_drill`` / figure-function
result inside a pass.  Each workload builds its inputs from the seed
alone, runs a pass without looking at a clock, and afterwards (outside
the timed window) turns the raw results into cells: an id, the
canonical document that is digested, and the few simulated statistics
kept in ``golden.json``.

``repro`` is imported inside the functions, not at module level, so
importing this module stays cheap for ``compare.py`` and the parent
process, and the child's import time is measured where it happens.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import statistics
from typing import Any, Callable

__all__ = ["WORKLOADS", "Workload", "Cell", "canonical_json", "digest"]


# ------------------------------------------------------------ canonical form
def _plain(value: Any) -> Any:
    """``value`` as JSON-able data, refusing anything order-unstable."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        return value
    if isinstance(value, enum.Enum):
        return _plain(value.value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _plain(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    item = getattr(value, "item", None)     # numpy scalars
    if callable(item) and getattr(value, "shape", None) == ():
        return _plain(item())
    raise TypeError(f"no canonical form for {type(value).__name__}: a set "
                    f"or an arbitrary object would make the digest depend "
                    f"on the hash seed")


def canonical_json(value: Any) -> str:
    """Sorted keys, no whitespace, floats by ``repr`` (round-trip exact)."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- cells
@dataclasses.dataclass
class Cell:
    """One cell of one pass."""

    id: str
    digest: str
    #: The simulated statistics recorded in ``golden.json``.
    stats: dict
    #: Checks this cell failed (empty: the cell is good).
    failures: list[str] = dataclasses.field(default_factory=list)


def _experiment_cell(result, loaded: bool = True) -> Cell:
    """``loaded`` is False for cells whose users never act: the load
    checks give way to "every slave replicated heartbeats"."""
    document = {field.name: getattr(result, field.name)
                for field in dataclasses.fields(result)
                if field.name != "config"}
    config = result.config
    document["cell"] = config.label
    document["seed"] = config.seed
    cell = Cell(config.label, digest(document), {
        "throughput": result.throughput,
        "relative_delay_ms": result.relative_delay_ms,
        "master_cpu": result.master_cpu,
        "max_slave_cpu": result.max_slave_cpu,
        "bottleneck": result.bottleneck,
    })
    cpus = [result.master_cpu, *result.slave_cpus]
    if not all(0.0 <= cpu <= 1.0 for cpu in cpus):
        cell.failures.append(f"CPU utilisation outside [0, 1]: {cpus}")
    if not loaded:
        if result.relative_delay_ms is None or len(
                result.heartbeat_counts) != config.n_slaves \
                or not all(count > 0 for count in result.heartbeat_counts):
            cell.failures.append(
                f"not every slave applied heartbeats in the steady window: "
                f"{result.heartbeat_counts}")
        return cell
    if not result.throughput > 0:
        cell.failures.append("throughput is not positive")
    # The mix is drawn per operation, so the achieved fraction is a
    # binomial estimate: allow its sampling error on top of the fixed
    # 0.06, or a cell with a few dozen operations fails by chance.
    wanted = config.mix.read_fraction
    operations = max(result.throughput * config.phases.steady, 1.0)
    slack = 0.06 + 3.0 * math.sqrt(wanted * (1.0 - wanted) / operations)
    if abs(result.achieved_read_fraction - wanted) > slack:
        cell.failures.append(
            f"read fraction {result.achieved_read_fraction:.3f} is not "
            f"within {slack:.3f} of the mix's {wanted:.2f}")
    return cell


def _grid_cells(sweeps, loaded: bool = True) -> list[Cell]:
    return [_experiment_cell(result, loaded)
            for sweep in sweeps for result in sweep.results]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (seed, smoke) -> inputs; the program sees only these.
    build: Callable[[int, bool], Any]
    #: inputs -> raw results; the timed part.
    run: Callable[[Any], Any]
    #: (inputs, raw) -> cells, with per-cell and shape checks applied.
    cells: Callable[[Any, Any], list[Cell]]


# ------------------------------------------------------------------- grids
def _grid(factory_name: str, location: str, full: dict, smoke: dict):
    def build(seed: int, is_smoke: bool) -> dict:
        from repro.experiments import config as experiment_config
        from repro.workloads.cloudstone import Phases
        size = smoke if is_smoke else full
        return {
            "make_config": getattr(experiment_config, factory_name),
            "location": experiment_config.LocationConfig[location],
            "slave_counts": size["slaves"],
            "users": size["users"],
            "phases": Phases().scaled(size["time_factor"]),
            "seed": seed,
            "baseline_duration": size["baseline"],
            **size.get("overrides", {}),
        }
    return build


def _run_grid(inputs: dict):
    from repro.experiments import run_grid
    return run_grid(**inputs)


_build_5050 = _grid(
    "PAPER_50_50", "SAME_ZONE",
    full={"slaves": (1, 2), "users": (50, 100, 150, 175, 200),
          "time_factor": 0.03, "baseline": 10.0},
    smoke={"slaves": (1,), "users": (20,), "time_factor": 0.01,
           "baseline": 2.0})


def _cells_5050(inputs: dict, sweeps) -> list[Cell]:
    """Per-cell checks plus the paper's Fig. 2/5 shape.

    The shape needs the full grid (it compares named cells), and is
    phrased so the seeded slave-hardware lottery cannot flip it: the
    master is pinned to nominal hardware, the slaves are not.
    """
    cells = _grid_cells(sweeps)
    if inputs["slave_counts"] != (1, 2):
        return cells
    by_id = {cell.id: cell for cell in cells}
    results = {(r.config.n_slaves, r.config.n_users): r
               for sweep in sweeps for r in sweep.results}
    one, two, low = results[1, 200], results[2, 200], results[2, 50]
    knee = by_id[two.config.label]
    if not two.throughput > one.throughput:
        knee.failures.append(
            f"a second slave did not raise throughput at 200 users "
            f"({one.throughput:.2f} -> {two.throughput:.2f} ops/s)")
    if two.bottleneck != "master-cpu":
        knee.failures.append(
            f"200 users on 2 slaves attributed to {two.bottleneck}, "
            f"not master-cpu")
    if not (low.relative_delay_ms is not None
            and two.relative_delay_ms is not None
            and two.relative_delay_ms >= 100.0 * low.relative_delay_ms):
        knee.failures.append(
            f"delay at 200 users ({two.relative_delay_ms} ms) is not 100x "
            f"the delay at 50 users ({low.relative_delay_ms} ms)")
    return cells


_build_8020 = _grid(
    "PAPER_80_20", "DIFFERENT_REGION",
    full={"slaves": (4,), "users": (200, 300),
          "time_factor": 0.05, "baseline": 10.0},
    smoke={"slaves": (1,), "users": (20,), "time_factor": 0.01,
           "baseline": 2.0})

#: The users of ``bootstrap`` never act (their first think time
#: outlasts the run): the cells bring a cluster up, replicate
#: heartbeats through an idle window and stop.  That keeps the amount
#: of simulation identical for every seed, where 20 active users made
#: the event count swing 15 % between seeds on a workload whose cost
#: is all dataset load and slave sync.
_IDLE = {"think_time_mean": 1e9}

_build_bootstrap = _grid(
    "PAPER_80_20", "DIFFERENT_ZONE",
    full={"slaves": (4, 8, 11), "users": (1,), "time_factor": 0.01,
          "baseline": 5.0, "overrides": _IDLE},
    smoke={"slaves": (2,), "users": (1,), "time_factor": 0.01,
           "baseline": 2.0, "overrides": _IDLE})


# ---------------------------------------------------------------- clock_net
def _build_clock_net(seed: int, smoke: bool) -> dict:
    if smoke:
        return {"seed": seed, "duration": 600.0, "probes": 2000,
                "launches": 5000}
    return {"seed": seed, "duration": 200000.0, "probes": 100000,
            "launches": 50000}


def _run_clock_net(inputs: dict) -> dict:
    from repro.experiments import (run_fig4_clock_sync,
                                   run_instance_variation,
                                   run_rtt_characterization)
    seed = inputs["seed"]
    return {
        "fig4": run_fig4_clock_sync(duration=inputs["duration"],
                                    sample_period=1.0, seed=seed),
        "rtt": run_rtt_characterization(probes=inputs["probes"], seed=seed),
        "instance_variation": run_instance_variation(
            launches=inputs["launches"], seed=seed),
    }


_PAPER_HALF_RTT_MS = {"same_zone": 16.0, "different_zone": 21.0,
                      "different_region": 173.0}


def _cells_clock_net(inputs: dict, raw: dict) -> list[Cell]:
    fig4 = Cell("fig4", digest(raw["fig4"]), {
        policy: {"first_ms": samples[0], "last_ms": samples[-1],
                 "median_ms": statistics.median(samples)}
        for policy, samples in raw["fig4"].items()})
    once, every = raw["fig4"]["sync_once"], raw["fig4"]["sync_every_second"]
    if not statistics.median(every) < statistics.median(once):
        fig4.failures.append("syncing every second did not beat syncing once")
    rtt = Cell("rtt", digest(raw["rtt"]), dict(raw["rtt"]))
    for location, paper_ms in _PAPER_HALF_RTT_MS.items():
        measured = raw["rtt"][location]
        if abs(measured - paper_ms) > 0.05 * paper_ms:
            rtt.failures.append(f"{location} half-RTT {measured:.2f} ms is "
                                f"not within 5% of {paper_ms:.0f} ms")
    variation = raw["instance_variation"]
    lottery = Cell("instance_variation", digest(variation), dict(variation))
    if abs(variation["cov"] - 0.21) > 0.02:
        lottery.failures.append(
            f"CoV {variation['cov']:.3f} is not within 0.21 +/- 0.02")
    return [fig4, rtt, lottery]


# ----------------------------------------------------------- drill_observed
def _build_drill(seed: int, smoke: bool) -> dict:
    from repro.chaos import DrillConfig
    from repro.obs.live import default_slo_spec
    config = DrillConfig(seed=seed) if smoke \
        else DrillConfig(seed=seed, n_users=120, n_slaves=4)
    return {"config": config, "slo": default_slo_spec()}


def _run_drill(inputs: dict):
    from repro.chaos import run_drill
    return run_drill(inputs["config"], slo=inputs["slo"]).report


def _cells_drill(inputs: dict, report: dict) -> list[Cell]:
    failover = report["failover"] or {}
    cell = Cell(f"drill seed={inputs['config'].seed}", report["digest"], {
        "digest": report["digest"],
        "operations": report["driver"]["operations"],
        "errors": report["driver"]["errors"],
        "retries": report["driver"]["retries"],
        "faults_applied": report["schedule"]["faults"],
        "promoted": failover.get("promoted"),
        "lost_commits": failover.get("lost_commits"),
        "time_to_recover_s": failover.get("time_to_recover_s"),
        "spans": report["observability"]["spans"],
    })
    consistency = report["consistency"]
    if not consistency["drained"]:
        cell.failures.append("replication did not drain after the drill")
    if not consistency["consistent"]:
        cell.failures.append("slaves differ from the master after the drill")
    if not failover.get("promoted"):
        cell.failures.append("no slave was promoted")
    if report["observability"]["droppedSpans"] != 0:
        cell.failures.append(
            f"{report['observability']['droppedSpans']} spans dropped")
    return [cell]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "grid_5050",
        "Fig. 2/5 row across the master-write knee: write-heavy, every "
        "write binlogged and re-applied per slave; steady state dominates",
        _build_5050, _run_grid, _cells_5050),
    Workload(
        "grid_8020",
        "Fig. 3/6 cells: read-heavy joins and ORDER BY on a larger dataset, "
        "four cross-region slaves; a write gain that costs reads shows here",
        _build_8020, _run_grid, lambda inputs, raw: _grid_cells(raw)),
    Workload(
        "bootstrap",
        "idle clusters up to the paper's 11 slaves: dataset load and slave "
        "snapshot/restore are the cost; where a template database would show",
        _build_bootstrap, _run_grid,
        lambda inputs, raw: _grid_cells(raw, loaded=False)),
    Workload(
        "clock_net",
        "Fig. 4, RTT table and instance CoV: only sim and cloud run, so "
        "db/sql/bootstrap changes must leave it unchanged (bypass workload)",
        _build_clock_net, _run_clock_net, _cells_clock_net),
    Workload(
        "drill_observed",
        "the one workload with obs, obs.live, chaos, the monitor and "
        "failover resync switched on; measures the cost of observing",
        _build_drill, _run_drill, _cells_drill),
)}

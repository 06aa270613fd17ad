"""Seed-stability regression: the same seed must reproduce the *full*
metrics digest byte for byte.

This is the property the whole reproduction stands on (and the one the
DET lint rules guard statically): replication delay is measured at
microsecond scale, so even a single stray hash-order iteration or
wall-clock read somewhere in the stack shows up here as a digest
mismatch.
"""

from repro.experiments import LocationConfig, PAPER_50_50, run_experiment
from repro.workloads.cloudstone import Phases

#: A miniature quick-scale cell — same structure as the paper's grid,
#: sized so two back-to-back runs stay test-suite friendly.
PHASES = Phases(ramp_up=15.0, steady=60.0, ramp_down=10.0)


def cell_config(seed: int):
    return PAPER_50_50(LocationConfig.DIFFERENT_ZONE, n_slaves=2,
                       n_users=25, phases=PHASES, seed=seed,
                       data_size=60, baseline_duration=20.0)


def run_once(seed: int, observe=None):
    return run_experiment(cell_config(seed), observe=observe)


def digest(result) -> bytes:
    """Every measured number, at full float precision (repr round-trips
    doubles exactly, so equal digests mean equal measurements)."""
    parts = [
        f"throughput={result.throughput!r}",
        f"read_fraction={result.achieved_read_fraction!r}",
        f"mean_latency={result.mean_latency_s!r}",
        f"master_cpu={result.master_cpu!r}",
        f"slave_cpus={[repr(u) for u in result.slave_cpus]}",
        f"relative_delay={result.relative_delay_ms!r}",
        f"delay_series={[repr(d) for d in result.per_slave_delay_ms]}",
        f"heartbeats={result.heartbeat_counts!r}",
        "percentiles={!r}".format(sorted(
            (repr(p), repr(v))
            for p, v in result.latency_percentiles_s.items())),
    ]
    return "\n".join(parts).encode("utf-8")


def test_same_seed_same_digest():
    first = digest(run_once(seed=7))
    second = digest(run_once(seed=7))
    assert first == second


def test_different_seed_different_digest():
    # Sanity check that the digest actually captures the measurements
    # (a constant digest would make the test above vacuous).
    assert digest(run_once(seed=7)) != digest(run_once(seed=8))


def test_stepping_the_deployment_by_hand_changes_nothing():
    """``run_experiment`` is the ``Deployment`` steps plus
    ``measure_workload``.  The same steps called one by one — with a
    read-only sampling process of the caller's own started between two
    of them — measure the same cell, digit for digit."""
    from repro.experiments.deployment import Deployment
    from repro.experiments.runner import measure_workload

    config = cell_config(seed=7)
    cell = Deployment(config.seed, ntp_period=config.ntp_period)
    cell.provision(config.data_size,
                   [config.location.slave_placement()] * config.n_slaves,
                   config.heartbeat_interval,
                   pin_master=config.validated_master,
                   monitor_period=None)
    cell.run_baseline(config.baseline_duration)
    assert cell.workload_start == config.baseline_duration
    heads = []

    def sampler(sim):
        while True:
            yield sim.timeout(0.7)
            heads.append(cell.manager.master.binlog.head_position)

    cell.sim.process(sampler(cell.sim))
    cell.start_workload(config.mix, config.n_users,
                        config.think_time_mean, config.phases,
                        pool_size=config.pool_size)
    stepped = measure_workload(config, cell)
    assert len(heads) > 100 and heads[-1] > heads[0]
    assert digest(stepped) == digest(run_once(seed=7))


def run_observed(seed: int):
    """One observed run: (measurement digest, trace-artifact sha256)."""
    import hashlib

    from repro.obs import Observability, chrome_trace, spans_jsonl

    observe = Observability()
    result = run_once(seed=seed, observe=observe)
    blob = spans_jsonl(observe.tracer) + chrome_trace(
        observe.tracer, profiler=observe.profiler,
        metrics=observe.metrics)
    return (digest(result),
            hashlib.sha256(blob.encode("utf-8")).hexdigest())


def test_same_seed_byte_identical_trace():
    """The observability artifacts are part of the determinism
    contract: same seed -> same spans, same metrics, same profile,
    byte for byte — and recording them must not perturb the
    measurements themselves."""
    first_digest, first_trace = run_observed(seed=7)
    second_digest, second_trace = run_observed(seed=7)
    assert first_trace == second_trace
    assert first_digest == second_digest
    assert first_digest == digest(run_once(seed=7))


def test_built_and_reused_dataset_image_are_indistinguishable(tmp_path):
    """The first run of a process builds the Cloudstone dataset image,
    every later one installs a clone of it.  Nothing observable may
    tell the two apart: all four trace artifacts of an observed cell
    and the full report of an observed fault drill are compared byte
    for byte (the drill report's ``metricsDigest`` covers the
    ``sql.plancache.*`` counters the loader's replay must keep)."""
    import json

    from repro.chaos import DrillConfig, Fault, FaultSchedule, run_drill
    from repro.obs import Observability
    from repro.obs.live import default_slo_spec
    from repro.workloads.cloudstone import loader

    def observed_cell(directory):
        observe = Observability()
        result = run_once(seed=7, observe=observe)
        paths = observe.write_artifacts(str(directory))
        artifacts = {}
        for name, path in paths.items():
            with open(path, "rb") as handle:
                artifacts[name] = handle.read()
        return digest(result), artifacts

    def observed_drill():
        # Both resync paths run: crash recovery and failover.
        schedule = FaultSchedule([
            Fault(at=12.0, kind="slave-crash", target="slave-2",
                  duration=8.0),
            Fault(at=38.0, kind="repl-stall", target="slave-1",
                  duration=15.0),
            Fault(at=40.2, kind="master-crash"),
        ])
        config = DrillConfig(seed=3, n_users=8, n_slaves=2, data_size=60,
                             think_time_mean=3.0, baseline_duration=8.0,
                             phases=Phases(ramp_up=5.0, steady=50.0,
                                           ramp_down=5.0),
                             monitor_period=1.0, schedule=schedule)
        report = run_drill(config, slo=default_slo_spec()).report
        assert report["failover"]["promoted"]
        return json.dumps(report, sort_keys=True).encode("utf-8")

    loader._IMAGES.clear()
    built_cell = observed_cell(tmp_path / "built")
    built_drill = observed_drill()
    assert len(loader._IMAGES) == 2        # one key per loader stream
    reused_cell = observed_cell(tmp_path / "reused")
    reused_drill = observed_drill()
    assert len(loader._IMAGES) == 2        # ... and nothing was rebuilt
    assert set(built_cell[1]) == {"trace.json", "spans.jsonl",
                                  "metrics.jsonl", "profile.txt"}
    assert reused_cell == built_cell
    assert reused_drill == built_drill

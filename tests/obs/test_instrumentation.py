"""End-to-end observability: a tiny observed cell must produce spans
for the whole request path and the whole replication pipeline, with
stage durations that reconcile, and byte-identical artifacts across
same-seed runs."""

import json

import pytest

from repro.experiments import LocationConfig, PAPER_50_50, run_experiment
from repro.obs import Observability, chrome_trace, spans_jsonl
from repro.workloads.cloudstone import Phases

PHASES = Phases(ramp_up=5.0, steady=20.0, ramp_down=5.0)


def tiny_config(seed=7):
    return PAPER_50_50(LocationConfig.SAME_ZONE, n_slaves=1, n_users=5,
                       phases=PHASES, seed=seed, data_size=30,
                       baseline_duration=5.0)


def observed_run(seed=7, **kwargs):
    observe = Observability(**kwargs)
    result = run_experiment(tiny_config(seed), observe=observe)
    return result, observe


@pytest.fixture(scope="module")
def run():
    return observed_run()


def spans_named(observe, name):
    return [s for s in observe.tracer.spans if s.name == name]


def test_request_path_spans_present(run):
    _, observe = run
    for name in ("driver.request", "pool.acquire", "proxy.execute",
                 "db.execute"):
        assert spans_named(observe, name), f"missing {name} spans"


def test_replication_pipeline_spans_present(run):
    _, observe = run
    for name in ("repl.binlog", "repl.ship", "repl.relay", "repl.apply"):
        assert spans_named(observe, name), f"missing {name} spans"
    assert spans_named(observe, "phase.baseline")
    assert spans_named(observe, "phase.workload")


def test_no_open_or_dropped_spans(run):
    _, observe = run
    assert observe.tracer.open_scoped_spans == 0
    assert observe.tracer.dropped == 0


def test_request_span_nests_pool_and_proxy(run):
    _, observe = run
    by_id = {s.span_id: s for s in observe.tracer.spans}
    requests = spans_named(observe, "driver.request")
    assert requests
    for name in ("pool.acquire", "proxy.execute"):
        for span in spans_named(observe, name):
            parent = by_id.get(span.parent_id)
            assert parent is not None and parent.name == "driver.request"


def test_db_execute_nests_under_proxy(run):
    _, observe = run
    by_id = {s.span_id: s for s in observe.tracer.spans}
    executes = [s for s in spans_named(observe, "db.execute")
                if s.parent_id in by_id]
    assert executes
    assert all(by_id[s.parent_id].name == "proxy.execute"
               for s in executes)


def test_replication_stages_telescope(run):
    """ship.end == relay.start and relay.end == apply.start for every
    event, so summed stage durations equal apply_end - ship_start —
    the staleness decomposition the tentpole promises."""
    _, observe = run
    by_position = {}
    for name in ("repl.ship", "repl.relay", "repl.apply"):
        for span in spans_named(observe, name):
            by_position.setdefault(span.attributes["position"],
                                   {})[name] = span
    applied = {pos: stages for pos, stages in by_position.items()
               if len(stages) == 3}
    assert applied, "no fully-traced replication events"
    for stages in applied.values():
        ship, relay, apply_ = (stages["repl.ship"], stages["repl.relay"],
                               stages["repl.apply"])
        assert ship.end_time == pytest.approx(relay.start, abs=1e-12)
        assert relay.end_time == pytest.approx(apply_.start, abs=1e-12)
        total = ship.duration + relay.duration + apply_.duration
        assert total == pytest.approx(apply_.end_time - ship.start)


def test_binlog_instants_cover_shipped_events(run):
    _, observe = run
    binlog_positions = {s.attributes["position"]
                        for s in spans_named(observe, "repl.binlog")}
    shipped = {s.attributes["position"]
               for s in spans_named(observe, "repl.ship")}
    assert shipped <= binlog_positions


def test_profiler_decomposes_sim_time(run):
    _, observe = run
    total = PHASES.total + 5.0  # phases + baseline
    assert observe.profiler.total_sim_time == pytest.approx(total,
                                                            abs=1.0)
    owners = {row["owner"] for row in observe.profiler.rows()}
    assert "user-*" in owners
    assert "sql-thread:slave-*" in owners


def test_monitor_gauges_published(run):
    _, observe = run
    names = [entry["name"] for entry in observe.metrics.snapshot()]
    assert "master.cpu_util" in names
    assert any(name.endswith(".relay_backlog") for name in names)
    assert "pool.borrows" in names
    assert "driver.latency_s" in names
    assert "result.throughput" in names


def test_observation_does_not_perturb_results():
    """Recording is read-only: an observed run must measure exactly
    what an unobserved run measures."""
    observed, _ = observed_run()
    unobserved = run_experiment(tiny_config())
    assert observed.throughput == unobserved.throughput
    assert observed.mean_latency_s == unobserved.mean_latency_s
    assert observed.relative_delay_ms == unobserved.relative_delay_ms


def test_same_seed_byte_identical_artifacts():
    _, first = observed_run()
    _, second = observed_run()
    assert spans_jsonl(first.tracer) == spans_jsonl(second.tracer)
    assert chrome_trace(first.tracer, profiler=first.profiler,
                        metrics=first.metrics) == \
        chrome_trace(second.tracer, profiler=second.profiler,
                     metrics=second.metrics)


def test_different_seed_different_trace():
    _, first = observed_run(seed=7)
    _, second = observed_run(seed=8)
    assert spans_jsonl(first.tracer) != spans_jsonl(second.tracer)


def test_write_artifacts(tmp_path):
    _, observe = observed_run(seed=3)
    paths = observe.write_artifacts(str(tmp_path))
    assert set(paths) == {"trace.json", "spans.jsonl", "metrics.jsonl",
                          "profile.txt"}
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["traceEvents"]
    assert doc["kernelProfile"]["rows"]
    assert "kernel profile" in (tmp_path / "profile.txt").read_text()


def test_observability_attaches_once():
    observe = Observability()
    for unattached in (observe.meta, observe.finalize):
        with pytest.raises(RuntimeError, match="never attached"):
            unattached()
    run_experiment(tiny_config(), observe=observe)
    with pytest.raises(RuntimeError):
        run_experiment(tiny_config(), observe=observe)


def test_partial_observability():
    observe = Observability(monitor_period=None)
    run_experiment(tiny_config(), observe=observe)
    assert observe.metrics is not None
    names = [entry["name"] for entry in observe.metrics.snapshot()]
    assert "pool.borrows" in names
    assert "master.cpu_util" not in names  # no monitor was started

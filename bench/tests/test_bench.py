"""Tests of the benchmark itself (not part of the tier-1 suite).

    python -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import compare, run, spans  # noqa: E402
from bench.workloads import WORKLOADS, canonical_json, digest  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Each reading is one tick later than the last."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _layers(recorder, pass_wall_s=0.0):
    return spans.aggregate(recorder, pass_wall_s)


# ------------------------------------------------------- span arithmetic
def test_self_time_is_duration_minus_children():
    recorder = spans.Recorder(clock=FakeClock())
    leaf = recorder.span("db.execute", lambda: None)
    middle = recorder.span("workloads.load", lambda: (leaf(), leaf()))
    root = recorder.span("experiments.run_experiment", middle,
                         cell=lambda: "a cell")
    root()
    # Clock reads: root 1, middle 2, leaf 3-4, leaf 5-6, middle 7, root 8.
    layers = _layers(recorder, pass_wall_s=9.0)
    assert layers["db.execute.calls"] == 2
    assert layers["db.execute.self_s"] == 2.0
    assert layers["workloads.load.total_s"] == 5.0
    assert layers["workloads.load.self_s"] == 3.0
    assert layers["experiments.run_experiment.self_s"] == 2.0
    assert layers["experiments.cells"] == 1
    assert layers["trace.unspanned_s"] == 2.0
    assert [record[spans.CELL] for record in recorder.spans] \
        == ["a cell"] * 4
    assert recorder.cell is None


def test_recursion_counts_one_call_and_one_total():
    recorder = spans.Recorder(clock=FakeClock())

    def execute(database=None):
        if database is not None:
            return wrapped()
        return None

    wrapped = recorder.span("db.execute", execute)
    wrapped(database="cloudstone")
    # outer 1..4, inner 2..3
    layers = _layers(recorder)
    assert layers["db.execute.calls"] == 1
    assert layers["db.execute.total_s"] == 3.0
    assert layers["db.execute.self_s"] == 3.0


def test_exception_closes_the_span_and_counts_an_error():
    recorder = spans.Recorder(clock=FakeClock())

    def boom():
        raise ValueError("no such table")

    inner = recorder.span("db.execute", boom)

    def outer_body():
        try:
            inner()
        except ValueError:
            pass
        inner_ok()

    inner_ok = recorder.span("db.snapshot", lambda: None)
    recorder.span("workloads.load", outer_body)()
    layers = _layers(recorder)
    assert layers["db.execute.errors"] == 1
    assert layers["db.execute.self_s"] == 1.0
    # The raising span was popped: the next span's parent is the outer.
    assert recorder.spans[2][spans.PARENT] == 0
    assert layers["workloads.load.self_s"] == 5.0 - 1.0 - 1.0
    with pytest.raises(ValueError):
        inner()
    assert recorder._stack == []


def test_every_reported_metric_is_declared():
    names = set(_layers(spans.Recorder())) | set(run.EXTRA_LAYERS)
    assert names == set(run.per_layer_units())


# ------------------------------------------------------------ BENCHMARK.json
def test_benchmark_json_matches_the_code():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} \
        == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.per_layer_units()
    assert BENCHMARK["paths"] == ["bench"]


# ------------------------------------------------------------------ patching
def _wrapped_attributes():
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.partition(".")[0] != "repro":
            continue
        for name, value in vars(module).items():
            if getattr(value, "__bench_wrapper__", False):
                found.append(f"{module_name}.{name}")
            if isinstance(value, type):
                found.extend(
                    f"{module_name}.{name}.{attribute}"
                    for attribute, member in vars(value).items()
                    if getattr(member, "__bench_wrapper__", False))
    return found


def test_wrappers_are_fully_restored():
    import repro.experiments.runner as runner
    import repro.experiments.sweeps as sweeps
    original = runner.run_experiment
    patches = spans.install(spans.Recorder())
    try:
        assert runner.run_experiment is not original
        assert sweeps.run_experiment is runner.run_experiment
        assert _wrapped_attributes()
    finally:
        patches.restore()
    assert sweeps.run_experiment is original
    assert _wrapped_attributes() == []


# -------------------------------------------------------------------- digest
def test_canonical_json_refuses_sets_and_sorts_keys():
    assert canonical_json({"b": 1.5, "a": (1, None)}) \
        == '{"a":[1,null],"b":1.5}'
    with pytest.raises(TypeError):
        canonical_json({"users": {1, 2}})


def test_digest_is_stable_across_hash_seeds():
    program = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from bench.workloads import digest\n"
        "names = {'slave-%d' % n for n in range(50)}\n"
        "print(digest({name: [len(name), 0.1 * len(name)] "
        "for name in names}))\n")
    digests = set()
    for hash_seed in ("0", "1", "12345"):
        done = subprocess.run(
            [sys.executable, "-c", program, str(ROOT)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1
    assert digests == {digest({f"slave-{n}": [len(f"slave-{n}"),
                                              0.1 * len(f"slave-{n}")]
                               for n in range(50)})}


# ------------------------------------------------------------------- compare
def _result(wall, seed=0, calls=10):
    return {"seed": seed, "workloads": {"grid_5050": {
        "failed_share": 0.0,
        "end_to_end": {"wall_us_per_event": wall, "cpu_us_per_event": wall,
                       "peak_rss_mb": 60.0, "setup_s": 9.0},
        "layers": {"db.execute.calls": calls, "db.execute.self_s": wall},
    }}}


def test_compare_applies_the_bounds_and_exact_counts():
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"]
                 if m["name"] == "wall_us_per_event")
    rows, counts = compare.compare(
        [_result(30.0)], [_result(30.0 * (1 + bound) + 0.1, calls=11)],
        BENCHMARK)
    verdicts = {(w, m): v for w, m, _a, _b, _bound, v in rows}
    assert verdicts["grid_5050", "wall_us_per_event"] == "worse"
    assert verdicts["grid_5050", "peak_rss_mb"] == "within-bound"
    assert verdicts["grid_5050", "failed_share"] == "within-bound"
    assert counts == [(0, "grid_5050", "db.execute.calls", 10, 11)]
    rows, _ = compare.compare([_result(30.0)], [_result(20.0)], BENCHMARK)
    assert ("grid_5050", "wall_us_per_event", 30.0, 20.0, bound,
            "better") in rows
    assert compare.verdict(0.0, 0.1, 0.0, "lower") == "worse"


# -------------------------------------------------------------- whole command
def test_smoke_run_exercises_the_whole_command():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--trace"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads((ROOT / "bench" / "out" / "result.json").read_text())
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for name, workload in result["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] >= 3
        assert set(workload["end_to_end"]) == set(run.END_TO_END)
        assert set(workload["layers"]) == set(run.per_layer_units())
        assert workload["layers"]["trace.unspanned_s"] \
            < 0.05 * max(workload["wall_s"]), name
        assert (ROOT / "bench" / "out" / f"spans_{name}.jsonl").is_file()
    layers = result["workloads"]["clock_net"]["layers"]
    assert layers["sql.prepare.calls"] == 0 == layers["db.execute.calls"]
    assert result["workloads"]["drill_observed"]["layers"][
        "obs.span.calls"] > 0
    assert result["workloads"]["grid_5050"]["layers"]["obs.span.calls"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_single_workload_prints_the_contract_summary(trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--workload", "bootstrap", "--seed", "7", "--seconds", "1",
         "--trace", str(trace)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in summary["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clock_net",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout

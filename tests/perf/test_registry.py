"""Registry + registered benches: resolution, determinism at quick
scale."""

import pytest

import repro.perf  # noqa: F401  (registers the built-in benches)
from repro.perf.harness import run_bench
from repro.perf.registry import (SCALES, all_benchmarks, get_benchmark,
                                 register, resolve)

EXPECTED = {"kernel.events", "obs.stream", "sql.parse_cold"}


def test_builtin_suite_is_registered():
    names = {spec.name for spec in all_benchmarks()}
    assert EXPECTED == names
    assert [spec.name for spec in all_benchmarks()] \
        == sorted(spec.name for spec in all_benchmarks())


def test_scales_are_ordered_multipliers():
    assert SCALES["quick"] < SCALES["standard"] < SCALES["full"]


def test_get_unknown_benchmark_lists_known():
    with pytest.raises(KeyError, match="unknown benchmark 'nope'"):
        get_benchmark("nope")


def test_resolve_exact_family_and_unknown():
    assert [s.name for s in resolve(["sql.parse_cold"])] \
        == ["sql.parse_cold"]
    family = [s.name for s in resolve(["kernel"])]
    assert family == ["kernel.events"]
    merged = {s.name for s in resolve(["sql.parse_cold", "kernel"])}
    assert merged == {"sql.parse_cold", "kernel.events"}
    assert resolve(None) == all_benchmarks()
    with pytest.raises(KeyError, match="unknown benchmark"):
        resolve(["sql.parse_cold", "bogus"])


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register("sql.parse_cold", "sql", "statements", "dup")(object)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_each_micro_bench_is_repeat_deterministic(name):
    """Two repeats at quick scale must agree on every counter (the
    harness raises otherwise) and two seeds must not."""
    spec = get_benchmark(name)
    result = run_bench(spec, seed=0, scale="quick", repeats=2,
                       warmup=0)
    assert result.counters
    assert all(isinstance(v, (int, float))
               for v in result.counters.values())
    other = run_bench(spec, seed=1, scale="quick", repeats=1,
                      warmup=0)
    assert other.counters != result.counters


def test_resolve_family_prefix_with_trailing_dot():
    # The docs show "--bench sql." — both spellings must work.
    dotted = {spec.name for spec in resolve(["sql."])}
    bare = {spec.name for spec in resolve(["sql"])}
    assert dotted == bare
    assert dotted == {"sql.parse_cold"}

"""Shared benchmark plumbing.

Figs. 2+5 and 3+6 are rendered from the *same* experiment runs (the
paper measured throughput and replication delay in one deployment), so
grids are computed once per (ratio, location) and cached for the
session.  ``REPRO_SCALE`` (quick | standard | full) selects grid
density and run durations; ``full`` is the paper's exact 35-minute
grid and takes hours.

Each bench prints its table (run pytest with ``-s`` to see them live)
and saves it under ``benchmarks/results/``.  A figure table is a
section of the report registry (:mod:`repro.experiments.report`): its
file holds the text ``repro report --section NAME`` prints.  The
other files are shape-assertion outputs only these benches write.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import LocationConfig, bench_scale
from repro.experiments.report import SECTIONS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_CACHE: dict = {}


def produce(name: str):
    """Run (or fetch) report section ``name``'s producer, seed 0;
    sections on one grid share one run per session."""
    profile = bench_scale()  # simtaint: blessed=REPRO_SCALE-sizes-the-benchmark-not-the-result
    key = (SECTIONS[name].produce, profile.name)
    if key not in _CACHE:
        _CACHE[key] = SECTIONS[name].produce(profile, 0)
    return _CACHE[key]


def get_grid(ratio: str, location: LocationConfig):
    """Run (or fetch) the sweep grid for one sub-figure."""
    figure = 2 if ratio == "50/50" else 3
    return produce(f"fig{figure}_{location.value}")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def _cell(token: str):
    """A table cell: numeric where possible, verbatim otherwise."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def table_as_json(name: str, text: str) -> str:
    """Canonical-JSON rider for one rendered table.

    The tables are whitespace-delimited (title line, header line, data
    rows); the rider carries the same content machine-readably so
    fig/ablation results can be diffed and plotted without re-parsing
    print output.  Non-tabular blurbs degrade to title-only riders.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    title = lines[0] if lines else ""
    header = lines[1].split() if len(lines) > 1 else []
    rows = [[_cell(token) for token in line.split()]
            for line in lines[2:]]
    return json.dumps({"name": name, "title": title, "header": header,
                       "rows": rows},
                      sort_keys=True, separators=(",", ":"))


def publish(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Print a rendered table; persist it plus a canonical-JSON rider."""
    print(f"\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")
    (results_dir / f"{name}.json").write_text(
        table_as_json(name, text) + "\n")


def publish_section(results_dir: pathlib.Path, name: str, data) -> None:
    """Publish report section ``name`` rendered from ``data``."""
    publish(results_dir, name, SECTIONS[name].render(data))


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    These are simulation *experiments*, not micro-benchmarks; repeating
    them only repeats identical seeded runs.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)

"""The paper's evaluation as one ordered registry of sections.

A section is one artifact — a Fig. 2/3/5/6 table, a saturation
schedule, the Fig. 4 summary, the half-RTT table or the instance
lottery — named after the file the benchmarks write under
``benchmarks/results/``.  Its text is ``render(produce(profile,
seed))``: a producer from :mod:`.figures` run with the section's one
parameter set, and one of that module's fixed-width renderers with
the section's title.  ``repro report``, ``benchmarks/`` and the marked
blocks of EXPERIMENTS.md all print that text, so no table is
formatted twice.

Sections on the same (ratio, location) grid share one producer, and
:func:`render_sections` runs each producer once per call.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from . import figures
from .config import LocationConfig
from .figures import ScaleProfile

__all__ = ["Section", "SECTIONS", "render_sections", "render_report",
           "marked_sections", "refresh_document"]


@dataclass(frozen=True)
class Section:
    """One artifact: ``render(produce(profile, seed))`` is its text."""

    name: str
    produce: Callable[[ScaleProfile, int], Any]
    render: Callable[[Any], str]


def _run_grid(ratio: str, location: LocationConfig,
              profile: ScaleProfile, seed: int):
    return figures.run_throughput_delay_grid(ratio, location, profile,
                                             seed=seed)


_GRIDS = {(ratio, location): functools.partial(_run_grid, ratio, location)
          for ratio in ("50/50", "80/20") for location in figures.LOCATIONS}

_DATA_SIZE = {"50/50": 300, "80/20": 600}
_THROUGHPUT = "end-to-end throughput (ops/s)"
_DELAY = "average relative replication delay (ms)"


def _table_sections(figure: int, ratio: str, render: Callable,
                    what: str) -> list[Section]:
    return [Section(f"fig{figure}_{location.value}", _GRIDS[ratio, location],
                    functools.partial(
                        render, title=f"Fig.{figure} ({location.value}) "
                                      f"{what}, {ratio}, data size "
                                      f"{_DATA_SIZE[ratio]}"))
            for location in figures.LOCATIONS]


def _saturation_sections(ratio: str) -> list[Section]:
    return [Section(f"saturation_{ratio.replace('/', '')}_{location.value}",
                    _GRIDS[ratio, location],
                    functools.partial(
                        figures.render_saturation_schedule,
                        title=f"{ratio} saturation schedule "
                              f"({location.value.replace('_', ' ')})"))
            for location in figures.LOCATIONS]


# The producers go through the module so a wrapper patched onto
# ``figures.run_*`` sees the call.
SECTIONS: dict[str, Section] = {section.name: section for section in [
    *_table_sections(2, "50/50", figures.render_throughput_table,
                     _THROUGHPUT),
    *_table_sections(3, "80/20", figures.render_throughput_table,
                     _THROUGHPUT),
    Section("fig4_clock_sync",
            lambda profile, seed: figures.run_fig4_clock_sync(seed=seed),
            figures.render_fig4),
    *_table_sections(5, "50/50", figures.render_delay_table, _DELAY),
    *_table_sections(6, "80/20", figures.render_delay_table, _DELAY),
    Section("rtt_characterization",
            lambda profile, seed:
                figures.run_rtt_characterization(seed=seed),
            figures.render_rtt_table),
    *_saturation_sections("50/50"),
    *_saturation_sections("80/20"),
    Section("instance_variation",
            lambda profile, seed: figures.run_instance_variation(seed=seed),
            figures.render_instance_variation),
]}


def render_sections(names: Iterable[str], profile: ScaleProfile,
                    seed: int) -> dict[str, str]:
    """Each named section's text, in the order given; sections that
    share a producer share one run of it."""
    produced: dict[Callable, Any] = {}
    texts = {}
    for name in names:
        section = SECTIONS[name]
        if section.produce not in produced:
            produced[section.produce] = section.produce(profile, seed)
        texts[name] = section.render(produced[section.produce])
    return texts


def _fenced(text: str) -> str:
    return f"```\n{text}\n```"


def render_report(texts: dict[str, str], profile: ScaleProfile,
                  seed: int) -> str:
    """A Markdown document: a title, then per section a ``## NAME``
    heading and a fenced block holding exactly the section's text."""
    chunks = [f"# Reproduction run — scale={profile.name}, seed={seed}"]
    chunks.extend(f"## {name}\n\n{_fenced(text)}"
                  for name, text in texts.items())
    return "\n\n".join(chunks) + "\n"


_OPEN = re.compile(r"^<!-- section: (.*?) -->$", re.M)
_CLOSE = re.compile(r"^<!-- /section -->$", re.M)
_BLOCK = re.compile(r"^<!-- section: (.*?) -->\n.*?^<!-- /section -->$",
                    re.M | re.S)


def marked_sections(document: str) -> list[str]:
    """The section names a document marks with ``<!-- section: NAME
    -->`` … ``<!-- /section -->``, in document order.

    Raises ValueError on an unknown name, or on a marker without its
    partner (an unterminated or nested block, a stray close).
    """
    names = _BLOCK.findall(document)
    if not (len(names) == len(_OPEN.findall(document))
            == len(_CLOSE.findall(document))):
        raise ValueError("unterminated or unmatched <!-- section --> "
                         "marker")
    unknown = sorted(set(names) - set(SECTIONS))
    if unknown:
        raise ValueError(f"unknown section(s): {', '.join(unknown)}")
    return names


def refresh_document(document: str, texts: dict[str, str]) -> str:
    """``document`` with each marked block's body replaced by a fenced
    block of that section's text; everything outside the blocks is
    kept byte for byte."""
    return _BLOCK.sub(lambda match: f"<!-- section: {match[1]} -->\n"
                                    f"{_fenced(texts[match[1]])}\n"
                                    f"<!-- /section -->", document)

"""The section registry: texts, report layout and marker refresh."""

import pytest

from repro.experiments import (LocationConfig, PAPER_50_50, PROFILES,
                               figures, run_user_sweep)
from repro.experiments.report import (SECTIONS, marked_sections,
                                      refresh_document, render_report,
                                      render_sections)
from repro.workloads.cloudstone import Phases

TINY = Phases(10.0, 30.0, 5.0)


def test_report_basic_blocks():
    text = render_report({"fig4_clock_sync": "a\nb", "rtt": "c"},
                         PROFILES["quick"], 3)
    assert text.startswith("# Reproduction run — scale=quick, seed=3\n")
    assert "## fig4_clock_sync\n\n```\na\nb\n```" in text
    assert text.endswith("## rtt\n\n```\nc\n```\n")


def test_fig4_and_rtt_sections():
    texts = render_sections(["fig4_clock_sync", "rtt_characterization"],
                            PROFILES["quick"], 0)
    assert "sync_once" in texts["fig4_clock_sync"]
    assert "28.23" in texts["fig4_clock_sync"]  # paper reference line
    assert "different_region" in texts["rtt_characterization"]


def test_instance_variation_section_names_4000_launches():
    text = render_sections(["instance_variation"], PROFILES["quick"],
                           0)["instance_variation"]
    assert "over 4000 launches" in text


@pytest.fixture(scope="module")
def sweep():
    return run_user_sweep(PAPER_50_50, LocationConfig.SAME_ZONE,
                          n_slaves=1, users=(10, 25), phases=TINY,
                          seed=9, baseline_duration=10.0, data_size=50)


def test_grid_section_renders_tables(sweep):
    throughput = SECTIONS["fig2_same_zone"].render([sweep])
    assert throughput.startswith("Fig.2 (same_zone) end-to-end "
                                 "throughput (ops/s), 50/50")
    assert "1-slave" in throughput
    schedule = SECTIONS["saturation_5050_same_zone"].render([sweep])
    assert schedule.startswith("50/50 saturation schedule (same zone)\n")
    assert "saturated" in schedule


def test_sections_on_one_grid_share_one_run(sweep, monkeypatch):
    calls = []

    def grid(ratio, location, profile, seed):
        calls.append((ratio, location))
        return [sweep]

    monkeypatch.setattr(figures, "run_throughput_delay_grid", grid)
    render_sections(["fig2_same_zone", "fig5_same_zone",
                     "saturation_5050_same_zone", "fig3_same_zone"],
                    PROFILES["quick"], 0)
    assert calls == [("50/50", LocationConfig.SAME_ZONE),
                     ("80/20", LocationConfig.SAME_ZONE)]


TOY = """# prose before
keep  this\t spacing
<!-- section: fig2_same_zone -->
```
stale table
```
<!-- /section -->
prose between
<!-- section: instance_variation -->
<!-- /section -->
tail
"""

REFRESHED = """# prose before
keep  this\t spacing
<!-- section: fig2_same_zone -->
```
title
row
```
<!-- /section -->
prose between
<!-- section: instance_variation -->
```
lottery
```
<!-- /section -->
tail
"""


def test_refresh_rewrites_only_the_marked_blocks():
    texts = {"fig2_same_zone": "title\nrow", "instance_variation": "lottery"}
    assert marked_sections(TOY) == ["fig2_same_zone", "instance_variation"]
    once = refresh_document(TOY, texts)
    assert once == REFRESHED
    assert refresh_document(once, texts) == once


def test_a_document_without_markers_marks_nothing():
    assert marked_sections("# just prose\n") == []


@pytest.mark.parametrize("document", [
    "<!-- section: fig9_same_zone -->\n<!-- /section -->\n",
    "<!-- section: fig2_same_zone -->\nnever closed\n",
    "<!-- section: fig2_same_zone -->\n<!-- section: fig5_same_zone -->\n"
    "<!-- /section -->\n",
    "<!-- section: fig2_same_zone -->\n<!-- /section -->\n"
    "<!-- /section -->\n",
], ids=["unknown", "unterminated", "nested", "stray-close"])
def test_bad_markers_are_errors(document):
    with pytest.raises(ValueError):
        marked_sections(document)

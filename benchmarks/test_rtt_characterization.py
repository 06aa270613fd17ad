"""RTT — In-text §IV-B.2 characterization.

"The results suggest an average of 16, 21, and 173 milliseconds 1/2
round-trip time for the same zone, different zones and different
regions, respectively" (ping once a second for 20 minutes).
"""

import pytest

from conftest import produce, publish_section, run_once


def test_rtt_characterization(benchmark, results_dir):
    half_rtts = run_once(benchmark,
                         lambda: produce("rtt_characterization"))
    publish_section(results_dir, "rtt_characterization", half_rtts)
    assert half_rtts["same_zone"] == pytest.approx(16.0, abs=2.0)
    assert half_rtts["different_zone"] == pytest.approx(21.0, abs=2.0)
    assert half_rtts["different_region"] == pytest.approx(173.0, abs=7.0)
    # Ordering: same zone < different zone << different region.
    assert half_rtts["same_zone"] < half_rtts["different_zone"] \
        < half_rtts["different_region"]

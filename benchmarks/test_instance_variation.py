"""VAR — In-text §IV-A instance performance variation.

"Previous research indicated that the coefficient of variation of CPU
of small instances is 21%" (Schad et al.), and the paper's anecdote:
two "identical" small instances landed on an Intel Xeon E5430 2.66 GHz
vs. an E5507 2.27 GHz, making the *nearer* slave the *slower* one.
"""

from repro.cloud import Cloud, MASTER_PLACEMENT, SMALL
from repro.sim import RandomStreams, Simulator

from conftest import produce, publish, publish_section, run_once


def test_instance_variation_cov(benchmark, results_dir):
    stats = run_once(benchmark, lambda: produce("instance_variation"))
    publish_section(results_dir, "instance_variation", stats)
    assert 0.15 < stats["cov"] < 0.27   # paper cites ~21 %
    assert stats["distinct_models"] >= 3


def test_identical_requests_can_yield_unequal_hardware(benchmark,
                                                       results_dir):
    """Launch a fleet of identical small instances and show the spread
    between the luckiest and unluckiest draw — the effect behind the
    paper's Fig. 2b vs. 2c anomaly."""
    def spread():
        sim = Simulator()
        cloud = Cloud(sim, RandomStreams(77))
        speeds = [cloud.launch(SMALL, MASTER_PLACEMENT).effective_speed
                  for _ in range(40)]
        return min(speeds), max(speeds)

    slowest, fastest = run_once(benchmark, spread)
    publish(results_dir, "instance_spread",
            f"40 identical m1.small launches: slowest {slowest:.2f}, "
            f"fastest {fastest:.2f} (relative speed) — a "
            f"{fastest / slowest:.2f}x gap between 'identical' VMs")
    assert fastest / slowest > 1.2

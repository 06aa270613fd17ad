"""SAT — In-text §IV-A saturation-transition narrative.

"The observed saturation point ... appearing in slaves at the
beginning, moves along with an increasing workload when more and more
slaves are synchronized to the master.  But eventually, the saturation
will transit from slaves to the master where the scalability limit is
achieved."  At 50/50 the master is the saturated resource from the 3rd
slave; adding slaves past that point buys no throughput.
"""

from repro.experiments import LocationConfig, saturation_point

from conftest import get_grid, publish, publish_section, run_once


def test_saturation_transition_5050(benchmark, results_dir):
    grids = run_once(benchmark,
                     lambda: get_grid("50/50", LocationConfig.SAME_ZONE))
    publish_section(results_dir, "saturation_5050_same_zone", grids)

    by_slaves = {g.n_slaves: g for g in grids}
    counts = sorted(by_slaves)
    # The saturated resource at the heaviest load transitions from the
    # slaves (few replicas) to the master (many replicas).
    few_heaviest = by_slaves[counts[0]].results[-1]
    many_heaviest = by_slaves[counts[-1]].results[-1]
    assert few_heaviest.max_slave_cpu >= 0.9
    assert many_heaviest.master_cpu >= 0.9
    # Once the master saturates, extra slaves are over-provisioned:
    # their CPUs sit well below the master's.
    assert many_heaviest.max_slave_cpu < many_heaviest.master_cpu + 0.05


def test_saturation_knee_moves_right_with_slaves(benchmark, results_dir):
    """The 1-slave knee (~100 users in the paper) sits at a lighter
    workload than the many-slave knee (~175 users)."""
    def knees():
        grids = get_grid("50/50", LocationConfig.SAME_ZONE)
        by_slaves = {g.n_slaves: g for g in grids}
        few = saturation_point(by_slaves[min(by_slaves)])
        many = saturation_point(by_slaves[max(by_slaves)])
        return few, many

    few_knee, many_knee = run_once(benchmark, knees)
    publish(results_dir, "saturation_knees",
            f"50/50 saturation point: fewest slaves at {few_knee} users, "
            f"most slaves at {many_knee} users "
            f"(paper: 100 -> 175 users)")
    assert few_knee is not None
    assert many_knee is None or many_knee >= few_knee

#!/usr/bin/env python3
"""Delay waterfall: *where* does replication staleness come from?

Figs. 5/6 of the paper report one number per cell — the average
relative replication delay — and the §IV-A narrative explains it by
hand ("the slave CPUs saturate", "the master write path is the
wall").  This example records one 50/50 cell with full observability
and lets the analysis plane do the explaining:

* the per-slave **staleness waterfall** splits every replicated
  event's commit-to-applied delay into binlog-wait / ship / relay-wait
  / apply — the decomposition behind the Fig. 5 curve;
* the waterfall is **reconciled** against the paper's own heartbeat
  estimator (same censoring, same windows, same 5 % trim);
* the **bottleneck attributor** names the saturated resource with the
  evidence, the §IV-A diagnosis as a computed verdict.

Run:  python examples/delay_waterfall.py
(≈ 25 simulated minutes in a few wall seconds; same-seed runs print
byte-identical reports.)
"""

from repro.experiments import (LocationConfig, PAPER_50_50, PROFILES,
                               run_experiment)
from repro.obs import Observability
from repro.obs.analyze import (analyze_trace, from_session,
                               render_analysis_text)


def main():
    profile = PROFILES["quick"]
    config = PAPER_50_50(LocationConfig.SAME_ZONE, n_slaves=2,
                         n_users=150, phases=profile.phases, seed=0,
                         baseline_duration=profile.baseline_duration)
    print(f"running observed cell: {config.label} ...")
    observe = Observability(monitor_period=5.0)
    result = run_experiment(config, observe=observe)

    print(f"throughput {result.throughput:.1f} ops/s, relative delay "
          f"{result.relative_delay_ms:.1f} ms, runner verdict: "
          f"{result.bottleneck}")
    print()
    report = analyze_trace(from_session(observe))
    print(render_analysis_text(report))


if __name__ == "__main__":
    main()

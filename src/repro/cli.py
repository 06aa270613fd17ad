"""Command-line interface: regenerate any paper artefact.

Usage::

    python -m repro fig4
    python -m repro rtt
    python -m repro fig2 --location same_zone --scale quick
    python -m repro cell --ratio 80/20 --location different_region \
        --slaves 4 --users 250

Every subcommand prints the same table the corresponding bench writes
to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from .experiments import (LOCATIONS, LocationConfig, PAPER_50_50,
                          PAPER_80_20, render_delay_table, render_fig4,
                          render_instance_variation, render_rtt_table,
                          render_saturation_schedule,
                          render_throughput_table, run_experiment,
                          run_fig4_clock_sync, run_instance_variation,
                          run_rtt_characterization,
                          run_throughput_delay_grid)
from .experiments.figures import _PROFILES

__all__ = ["main", "build_parser"]


def _location(value: str) -> LocationConfig:
    try:
        return LocationConfig(value)
    except ValueError:
        choices = ", ".join(loc.value for loc in LocationConfig)
        raise argparse.ArgumentTypeError(
            f"unknown location {value!r} (choose from {choices})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'Application-Managed "
                    "Database Replication on Virtualized Cloud "
                    "Environments' (ICDE 2012)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_command(name, ratio, render, what):
        cmd = sub.add_parser(name, help=f"{what} ({ratio})")
        cmd.add_argument("--location", type=_location, default=None,
                         help="one placement (default: all three)")
        cmd.add_argument("--scale", choices=sorted(_PROFILES),
                         default="quick")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.set_defaults(ratio=ratio, render=render, what=what,
                         handler=_run_grid_command)

    add_grid_command("fig2", "50/50", render_throughput_table,
                     "end-to-end throughput")
    add_grid_command("fig3", "80/20", render_throughput_table,
                     "end-to-end throughput")
    add_grid_command("fig5", "50/50", render_delay_table,
                     "average relative replication delay")
    add_grid_command("fig6", "80/20", render_delay_table,
                     "average relative replication delay")

    fig4 = sub.add_parser("fig4", help="inter-instance clock differences")
    fig4.add_argument("--duration", type=float, default=1200.0)
    fig4.add_argument("--seed", type=int, default=0)
    fig4.set_defaults(handler=_run_fig4)

    rtt = sub.add_parser("rtt", help="half-RTT characterization")
    rtt.add_argument("--probes", type=int, default=1200)
    rtt.add_argument("--seed", type=int, default=0)
    rtt.set_defaults(handler=_run_rtt)

    var = sub.add_parser("variation",
                         help="small-instance performance variation")
    var.add_argument("--launches", type=int, default=2000)
    var.add_argument("--seed", type=int, default=0)
    var.set_defaults(handler=_run_variation)

    sat = sub.add_parser("saturation",
                         help="saturation-transition schedule (50/50)")
    sat.add_argument("--location", type=_location,
                     default=LocationConfig.SAME_ZONE)
    sat.add_argument("--scale", choices=sorted(_PROFILES),
                     default="quick")
    sat.add_argument("--seed", type=int, default=0)
    sat.set_defaults(handler=_run_saturation)

    report = sub.add_parser(
        "report", help="full Markdown report of every artefact")
    report.add_argument("--scale", choices=sorted(_PROFILES),
                        default="quick")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--output", default=None,
                        help="write to this path instead of stdout")
    report.set_defaults(handler=_run_report)

    cell = sub.add_parser("cell", help="run a single experiment cell")
    cell.add_argument("--ratio", choices=("50/50", "80/20"),
                      default="50/50")
    cell.add_argument("--location", type=_location,
                      default=LocationConfig.SAME_ZONE)
    cell.add_argument("--slaves", type=int, default=2)
    cell.add_argument("--users", type=int, default=100)
    cell.add_argument("--scale", choices=sorted(_PROFILES),
                      default="quick")
    cell.add_argument("--seed", type=int, default=0)
    cell.set_defaults(handler=_run_cell)

    trace = sub.add_parser(
        "trace", help="run one observed cell; write a Chrome trace "
                      "(Perfetto-loadable), span/metric JSONL and a "
                      "kernel profile")
    trace.add_argument("--ratio", choices=("50/50", "80/20"),
                       default="50/50")
    trace.add_argument("--location", type=_location,
                       default=LocationConfig.SAME_ZONE)
    trace.add_argument("--slaves", type=int, default=1)
    trace.add_argument("--users", type=int, default=25)
    trace.add_argument("--scale", choices=sorted(_PROFILES),
                       default="quick")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default="traces",
                       help="directory the artifacts are written to")
    trace.add_argument("--monitor-period", type=float, default=5.0,
                       help="cluster-monitor sampling period (sim "
                            "seconds)")
    trace.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="json prints one machine-readable document "
                            "(cell, results, artifact paths, profile)")
    trace.add_argument("--sanitize", action="store_true",
                       help="run with the sim-time race sanitizer "
                            "attached; exit 1 on any stale write-back")
    trace.add_argument("--wall-profile", action="store_true",
                       help="also attach the wall-clock profiler: "
                            "per-subsystem attribution to stderr, "
                            "wallprof.txt + wallprof.collapsed next "
                            "to the trace artifacts")
    trace.set_defaults(handler=_run_trace)

    analyze = sub.add_parser(
        "analyze", help="diagnose trace artifacts: staleness "
                        "waterfalls, heartbeat reconciliation and the "
                        "bottleneck verdict")
    analyze.add_argument("--dir", default="traces",
                         help="directory holding spans.jsonl / "
                              "metrics.jsonl / trace.json from "
                              "'repro trace'")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text")
    analyze.set_defaults(handler=_run_analyze)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injection drill; print the "
                      "recovery report (time-to-detect, "
                      "time-to-recover, lost commits, staleness "
                      "spike)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--users", type=int, default=20)
    chaos.add_argument("--slaves", type=int, default=2)
    chaos.add_argument("--plan", choices=("default", "random"),
                       default="default",
                       help="'default' exercises every fault kind and "
                            "ends in a master crash; 'random' draws a "
                            "seeded plan")
    chaos.add_argument("--faults", type=int, default=5,
                       help="fault count for --plan random")
    chaos.add_argument("--master-crash", action="store_true",
                       help="append a master crash to a random plan")
    chaos.add_argument("--out", default=None,
                       help="also write trace artifacts (spans, "
                            "metrics, Chrome trace, profile) to this "
                            "directory for 'repro analyze'")
    chaos.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="json prints the canonical recovery "
                            "report (byte-identical per seed)")
    chaos.add_argument("--sanitize", action="store_true",
                       help="attach the sim-time race sanitizer; the "
                            "summary goes to stderr so stdout stays "
                            "byte-identical; exit 1 on any report")
    chaos.add_argument("--wall-profile", action="store_true",
                       help="also attach the wall-clock profiler "
                            "(stderr table + wallprof artifacts under "
                            "--out, stdout stays byte-identical)")
    chaos.set_defaults(handler=_run_chaos)

    slo = sub.add_parser(
        "slo", help="run a fault drill with live SLO alerting; print "
                    "the incident timeline and the detection "
                    "scorecard (alert fire-times vs the injected "
                    "schedule)")
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--users", type=int, default=20)
    slo.add_argument("--slaves", type=int, default=2)
    slo.add_argument("--spec", default=None, metavar="FILE",
                     help="JSON SLO spec (default: the built-in "
                          "default spec)")
    slo.add_argument("--tolerance", type=float, default=30.0,
                     help="detection window past a fault's own "
                          "duration (sim seconds, default 30)")
    slo.add_argument("--out", default=None, metavar="FILE",
                     help="write the canonical incidents.json "
                          "(byte-identical per seed)")
    slo.add_argument("--format", choices=("text", "json"),
                     default="text",
                     help="json prints the canonical incidents "
                          "document")
    slo.set_defaults(handler=_run_slo)

    watch = sub.add_parser(
        "watch", help="run with a periodic text dashboard of live "
                      "streams and alert states (byte-identical "
                      "stdout per seed)")
    watch.add_argument("--seed", type=int, default=0)
    watch.add_argument("--users", type=int, default=20)
    watch.add_argument("--slaves", type=int, default=2)
    watch.add_argument("--interval", type=float, default=15.0,
                       help="dashboard frame period (sim seconds)")
    watch.add_argument("--spec", default=None, metavar="FILE",
                       help="JSON SLO spec (default: built-in)")
    watch.add_argument("--cell", action="store_true",
                       help="watch a plain experiment cell (quick "
                            "scale) instead of the fault drill")
    watch.set_defaults(handler=_run_watch)

    bench = sub.add_parser(
        "bench", help="run the deterministic layer benches (kernel "
                      "events / raw SQL parse / live-stream "
                      "operators), write BENCH json, compare against "
                      "a committed baseline")
    bench.add_argument("--bench", action="append", default=None,
                       metavar="NAME",
                       help="run only this benchmark or family "
                            "(repeatable; default: the whole suite)")
    bench.add_argument("--list", action="store_true",
                       help="list registered benchmarks and exit")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--scale", choices=sorted(_PROFILES),
                       default="quick",
                       help="workload size per bench (quick/standard/"
                            "full, mirroring the experiment grids)")
    bench.add_argument("--repeats", type=int, default=5,
                       help="timed repeats per bench (default 5)")
    bench.add_argument("--warmup", type=int, default=1,
                       help="untimed warmup runs per bench (default 1)")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="write the canonical BENCH json document "
                            "to FILE")
    bench.add_argument("--compare", default=None, metavar="OLD",
                       help="compare this run against a baseline "
                            "BENCH json; exit 1 on regression")
    bench.add_argument("--tolerance", type=float, default=10.0,
                       metavar="PCT",
                       help="allowed median slowdown before "
                            "--compare fails (percent, default 10)")
    bench.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="json prints the BENCH document (plus "
                            "the compare report when --compare)")
    bench.set_defaults(handler=_run_bench)

    check = sub.add_parser(
        "check", help="the static-analysis gate: determinism / "
                      "SQL / flow-pairing (simlint), yield-point "
                      "atomicity (simrace) and determinism taint "
                      "(simtaint) in one pass over one project model")
    check.add_argument("paths", nargs="*",
                       help="files or directories (default: the "
                            "[tool.simlint] paths)")
    check.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text",
                       help="sarif emits one merged document with "
                            "one run per tool "
                            "(simlint/simrace/simtaint)")
    check.add_argument("--select", action="append", default=None,
                       metavar="RULES",
                       help="only these rule ids/families "
                            "(comma-separated, repeatable)")
    check.add_argument("--ignore", action="append", default=None,
                       metavar="RULES",
                       help="drop these rule ids/families "
                            "(comma-separated, repeatable)")
    check.add_argument("--stats", action="store_true",
                       help="print per-rule finding counts and "
                            "wall-time (to stderr for json/sarif)")
    check.add_argument("--baseline", default=None, metavar="FILE",
                       help="only report findings not present in "
                            "this baseline snapshot; exit 1 only "
                            "on new ones")
    check.add_argument("--write-baseline", default=None,
                       metavar="FILE",
                       help="snapshot the current findings to FILE "
                            "(canonical JSON, byte-stable) and "
                            "exit 0")
    check.set_defaults(handler=_run_check)

    return parser


def _run_grid_command(args) -> str:
    profile = _PROFILES[args.scale]
    locations = [args.location] if args.location else list(LOCATIONS)
    blocks = []
    for location in locations:
        grids = run_throughput_delay_grid(args.ratio, location, profile,
                                          seed=args.seed)
        blocks.append(args.render(
            grids, f"{args.what} — {args.ratio}, {location.value}, "
                   f"scale={profile.name}"))
    return "\n\n".join(blocks)


def _run_fig4(args) -> str:
    series = run_fig4_clock_sync(duration=args.duration, seed=args.seed)
    return render_fig4(series)


def _run_rtt(args) -> str:
    return render_rtt_table(run_rtt_characterization(probes=args.probes,
                                                     seed=args.seed))


def _run_variation(args) -> str:
    return render_instance_variation(
        run_instance_variation(launches=args.launches, seed=args.seed))


def _run_saturation(args) -> str:
    profile = _PROFILES[args.scale]
    grids = run_throughput_delay_grid("50/50", args.location, profile,
                                      seed=args.seed)
    return render_saturation_schedule(grids)


def _run_report(args) -> str:
    from .experiments.report import (MarkdownReport, fig4_section,
                                     grid_section, rtt_section)
    profile = _PROFILES[args.scale]
    report = MarkdownReport(
        f"Reproduction run — scale={profile.name}, seed={args.seed}")
    for ratio, fig_pair in (("50/50", "Figs. 2/5"), ("80/20",
                                                     "Figs. 3/6")):
        for location in LOCATIONS:
            grids = run_throughput_delay_grid(ratio, location, profile,
                                              seed=args.seed)
            grid_section(report, grids,
                         f"{fig_pair} — {ratio}, {location.value}")
    fig4_section(report, run_fig4_clock_sync(seed=args.seed))
    rtt_section(report, run_rtt_characterization(seed=args.seed))
    report.add_heading("Instance variation (§IV-A)")
    report.add_paragraph(render_instance_variation(
        run_instance_variation(seed=args.seed)))
    text = report.render()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        return f"report written to {args.output}"
    return text


def _run_cell(args) -> str:
    profile = _PROFILES[args.scale]
    factory = PAPER_50_50 if args.ratio == "50/50" else PAPER_80_20
    config = factory(args.location, args.slaves, args.users,
                     profile.phases, seed=args.seed,
                     baseline_duration=profile.baseline_duration)
    result = run_experiment(config)
    delay = (f"{result.relative_delay_ms:.1f} ms"
             if result.relative_delay_ms is not None else "n/a")
    percentiles = result.latency_percentiles_s
    percentile_text = "  ".join(
        f"p{int(p)}={value * 1000:.0f}ms"
        for p, value in sorted(percentiles.items()))
    return "\n".join([
        f"cell: {config.label}",
        f"throughput:          {result.throughput:.2f} ops/s",
        f"read fraction:       {result.achieved_read_fraction:.2f}",
        f"mean latency:        {result.mean_latency_s * 1000:.1f} ms",
        f"latency percentiles: {percentile_text}",
        f"relative delay:      {delay}",
        f"master CPU:          {result.master_cpu:.2f}",
        f"slave CPUs:          "
        f"{[round(u, 2) for u in result.slave_cpus]}",
        f"saturated resource:  {result.saturated_resource}",
    ])


def _wall_profile_run(enabled: bool):
    """An attached-and-started WallProfiler, or None."""
    if not enabled:
        return None
    from .perf import WallProfiler
    profiler = WallProfiler()
    profiler.start()
    return profiler


def _finish_wall_profile(profiler, out_dir) -> dict:
    """Stop the profiler; stderr table + artifacts under ``out_dir``
    (returned as ``{artifact name: path}``).

    Wall timings are machine-dependent, so everything lands on stderr
    / in side files — stdout stays byte-identical per seed.
    """
    import os
    import sys

    from .perf import render_wallprof
    profiler.stop()
    table = render_wallprof(profiler)
    print(table, file=sys.stderr)
    paths = {}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in (("wallprof.txt", table),
                           ("wallprof.collapsed", profiler.collapsed())):
            paths[name] = os.path.join(out_dir, name)
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    return paths


def _run_trace(args):
    import json

    from .obs import Observability
    profile = _PROFILES[args.scale]
    factory = PAPER_50_50 if args.ratio == "50/50" else PAPER_80_20
    config = factory(args.location, args.slaves, args.users,
                     profile.phases, seed=args.seed,
                     baseline_duration=profile.baseline_duration)
    observe = Observability(monitor_period=args.monitor_period)
    sanitizer = None
    if args.sanitize:
        from .analysis.race import RaceSanitizer
        sanitizer = RaceSanitizer()
    wallprof = _wall_profile_run(args.wall_profile)
    result = run_experiment(config, observe=observe,
                            sanitizer=sanitizer)
    paths = observe.write_artifacts(args.out)
    if wallprof is not None:
        paths.update(_finish_wall_profile(wallprof, args.out))
    if args.format == "json":
        document = {
            "cell": {"location": args.location.value,
                     "ratio": args.ratio, "slaves": args.slaves,
                     "users": args.users, "scale": args.scale,
                     "seed": args.seed},
            "result": {
                "throughput": result.throughput,
                "mean_latency_s": result.mean_latency_s,
                "relative_delay_ms": result.relative_delay_ms,
                "master_cpu": result.master_cpu,
                "slave_cpus": result.slave_cpus,
                "bottleneck": result.bottleneck,
            },
            "artifacts": {name: paths[name] for name in sorted(paths)},
            "spans": len(observe.tracer.spans),
            "droppedSpans": observe.tracer.dropped,
            "profile": observe.profiler.snapshot(),
        }
        if sanitizer is not None:
            document["race"] = sanitizer.summary()
        return (json.dumps(document, sort_keys=True,
                           separators=(",", ":")),
                1 if sanitizer is not None and sanitizer.reports
                else 0)
    delay = (f"{result.relative_delay_ms:.1f} ms"
             if result.relative_delay_ms is not None else "n/a")
    lines = [
        f"cell: {config.label}",
        f"throughput:     {result.throughput:.2f} ops/s",
        f"relative delay: {delay}",
        f"spans recorded: {len(observe.tracer.spans)}",
        "",
    ]
    lines.extend(f"wrote {paths[name]}" for name in sorted(paths))
    lines.append("")
    lines.append(observe.render_profile())
    code = 0
    if sanitizer is not None:
        lines.append("")
        lines.append(f"race sanitizer: {len(sanitizer.reports)} "
                     f"report"
                     f"{'s' if len(sanitizer.reports) != 1 else ''}")
        lines.extend(f"  {report.render()}"
                     for report in sanitizer.reports)
        code = 1 if sanitizer.reports else 0
    return "\n".join(lines), code


def _run_analyze(args):
    from .obs.analyze import (AnalysisError, analyze_trace,
                              load_artifacts, render_analysis_json,
                              render_analysis_text)
    try:
        data = load_artifacts(args.dir)
        report = analyze_trace(data)
    except (AnalysisError, OSError) as error:
        return f"repro analyze: error: {error}", 1
    if args.format == "json":
        return render_analysis_json(report)
    return render_analysis_text(report)


def _run_chaos(args):
    import json

    from .chaos import (DrillConfig, FaultSchedule, default_schedule,
                        render_report_text, run_drill)
    from .obs import Observability
    from .sim import RandomStreams

    if args.plan == "default":
        if args.slaves < 2:
            return ("repro chaos: error: the default plan targets "
                    "slave-1 and slave-2; use --slaves >= 2 or "
                    "--plan random", 2)
        schedule = default_schedule()
    else:
        plan_streams = RandomStreams(args.seed)
        config_probe = DrillConfig()
        schedule = FaultSchedule.random_plan(
            plan_streams, horizon=config_probe.phases.total,
            slaves=[f"slave-{i + 1}" for i in range(args.slaves)],
            region_pairs=[("us-east-1", "eu-west-1")],
            n_faults=args.faults,
            include_master_crash=args.master_crash)
    config = DrillConfig(seed=args.seed, n_users=args.users,
                         n_slaves=args.slaves, schedule=schedule)
    observe = Observability()
    sanitizer = None
    if args.sanitize:
        from .analysis.race import RaceSanitizer
        sanitizer = RaceSanitizer()
    wallprof = _wall_profile_run(args.wall_profile)
    result = run_drill(config, observe=observe, sanitizer=sanitizer)
    if wallprof is not None:
        _finish_wall_profile(wallprof, args.out)
    if args.out:
        paths = observe.write_artifacts(args.out)
        import os
        report_path = os.path.join(args.out, "recovery.json")
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(result.report, handle, sort_keys=True,
                      separators=(",", ":"))
            handle.write("\n")
        paths["recovery.json"] = report_path
    code = 0
    if sanitizer is not None:
        # Stderr, so stdout stays byte-identical to an unsanitized
        # run — the CI sanitizer-smoke gate diffs the two.
        import sys
        print(f"race sanitizer: {len(sanitizer.reports)} report"
              f"{'s' if len(sanitizer.reports) != 1 else ''}",
              file=sys.stderr)
        for report in sanitizer.reports:
            print(f"  {report.render()}", file=sys.stderr)
        code = 1 if sanitizer.reports else 0
    if args.format == "json":
        return (json.dumps(result.report, sort_keys=True,
                           separators=(",", ":")), code)
    text = render_report_text(result.report)
    if args.out:
        text += "\n" + "\n".join(
            f"wrote {paths[name]}" for name in sorted(paths))
    return text, code


def _load_spec_arg(path, command):
    """(spec, None) or (None, error tuple) from a --spec argument."""
    from .obs.live import default_slo_spec, load_slo_file
    if path is None:
        return default_slo_spec(), None
    try:
        return load_slo_file(path), None
    except (OSError, ValueError, KeyError, TypeError) as error:
        return None, (f"repro {command}: error: bad SLO spec "
                      f"{path}: {error}", 2)


def _run_slo(args):
    import json

    from .chaos import DrillConfig, run_drill
    from .obs.live import (LiveSession, render_incidents_text,
                           write_incidents)

    if args.slaves < 2:
        return ("repro slo: error: the default plan targets slave-1 "
                "and slave-2; use --slaves >= 2", 2)
    spec, error = _load_spec_arg(args.spec, "slo")
    if error is not None:
        return error
    config = DrillConfig(seed=args.seed, n_users=args.users,
                         n_slaves=args.slaves)
    session = LiveSession(spec)
    result = run_drill(config, slo=session)
    document = result.incidents
    # The scorecard honours --tolerance; recompute when non-default.
    if args.tolerance != 30.0:
        from .obs.live import score_detection
        detection = score_detection(
            session.incidents, result.schedule,
            offset=result.deployment.workload_start,
            tolerance_s=args.tolerance)
        document = session.document(document["final_time_s"],
                                    detection=detection)
    if args.out:
        write_incidents(document, args.out)
    if args.format == "json":
        return json.dumps(document, sort_keys=True,
                          separators=(",", ":"))
    text = render_incidents_text(document)
    if args.out:
        text += f"\nwrote {args.out}"
    return text


def _run_watch(args):
    from .obs.live import LiveSession

    spec, error = _load_spec_arg(args.spec, "watch")
    if error is not None:
        return error
    if args.interval <= 0:
        return "repro watch: error: --interval must be positive", 2
    session = LiveSession(spec, watch_interval=args.interval)
    if args.cell:
        profile = _PROFILES["quick"]
        config = PAPER_50_50(LocationConfig.SAME_ZONE, args.slaves,
                             args.users, profile.phases,
                             seed=args.seed,
                             baseline_duration=profile
                             .baseline_duration)
        run_experiment(config, slo=session)
    else:
        from .chaos import DrillConfig, run_drill
        if args.slaves < 2:
            return ("repro watch: error: the default plan targets "
                    "slave-1 and slave-2; use --slaves >= 2 or "
                    "--cell", 2)
        config = DrillConfig(seed=args.seed, n_users=args.users,
                             n_slaves=args.slaves)
        run_drill(config, slo=session)
    return session.render_watch()


def _run_bench(args):
    import json

    from .perf import (bench_document, compare_documents,
                       load_bench_file, registry, render_compare_json,
                       render_compare_text, render_suite_text,
                       run_suite, write_bench_file)
    if args.list:
        lines = [f"{spec.name:<16s} [{spec.subsystem:<11s}] "
                 f"{spec.description}"
                 for spec in registry.all_benchmarks()]
        return "\n".join(lines)
    try:
        specs = registry.resolve(args.bench)
    except KeyError as error:
        return f"repro bench: error: {error.args[0]}", 2
    if args.repeats < 1 or args.warmup < 0:
        return ("repro bench: error: --repeats must be >= 1 and "
                "--warmup >= 0", 2)
    suite = run_suite(specs, seed=args.seed, scale=args.scale,
                      repeats=args.repeats, warmup=args.warmup)
    document = bench_document(suite)
    if args.out:
        write_bench_file(args.out, document)
    report = None
    if args.compare:
        try:
            baseline = load_bench_file(args.compare)
        except (OSError, ValueError) as error:
            return f"repro bench: error: {error}", 2
        selected = ({spec.name for spec in specs}
                    if args.bench else None)
        report = compare_documents(baseline, document,
                                   tolerance_pct=args.tolerance,
                                   only=selected)
    code = report.exit_code if report is not None else 0
    if args.format == "json":
        payload = dict(document)
        if report is not None:
            payload["compare"] = json.loads(
                render_compare_json(report))
        return (json.dumps(payload, sort_keys=True,
                           separators=(",", ":")), code)
    sections = [render_suite_text(suite)]
    if args.out:
        sections.append("")
        sections.append(f"wrote {args.out}")
    if report is not None:
        sections.append("")
        sections.append(render_compare_text(report))
    return "\n".join(sections), code


def _split_rule_lists(values: Optional[Sequence[str]]) -> list[str]:
    rules: list[str] = []
    for value in values or ():
        rules.extend(rule.strip() for rule in value.split(",")
                     if rule.strip())
    return rules


def _run_check(args) -> tuple[str, int]:
    import json
    import sys

    from .analysis import (LintStats, all_rules, check_paths, filter_new,
                           format_findings_text, format_merged_sarif,
                           load_baseline, load_config, write_baseline)
    from .analysis.race import RACE_RULES
    from .analysis.taint import TAINT_RULES
    rules_by_tool = {
        "simlint": all_rules(),
        "simrace": [cls() for cls in RACE_RULES],
        "simtaint": [cls() for cls in TAINT_RULES],
    }
    select = _split_rule_lists(args.select)
    ignore = _split_rule_lists(args.ignore)
    # A typo'd rule id would silently disable checks (exit 0), so an
    # unknown --select/--ignore entry is a usage error, not a no-op.
    # PARSE is selectable (a parse-only gate) but no --select drops
    # it, and LintConfig refuses to ignore it.
    known = sorted({rule.rule_id for rules in rules_by_tool.values()
                    for rule in rules} | {"PARSE"})
    unknown = [pattern for pattern in select + ignore
               if not any(rule_id.startswith(pattern)
                          for rule_id in known)]
    if unknown:
        return ("simcheck: error: unknown rule or family: "
                f"{', '.join(unknown)} (known: {', '.join(known)})", 2)
    try:
        config = load_config(".").narrowed(select=select, ignore=ignore)
    except ValueError as error:
        return f"simcheck: error: {error}", 2
    stats = LintStats() if args.stats else None
    try:
        results = check_paths(args.paths or None, config=config,
                              stats=stats)
    except FileNotFoundError as error:
        return f"simcheck: error: {error}", 2
    if args.write_baseline is not None:
        combined = [finding for tool in rules_by_tool
                    for finding in results[tool]]
        write_baseline(args.write_baseline, combined, "simcheck")
        return (f"simcheck: wrote baseline of {len(combined)} finding"
                f"{'s' if len(combined) != 1 else ''} to "
                f"{args.write_baseline}", 0)
    if args.baseline is not None:
        try:
            allowed = load_baseline(args.baseline)
        except (OSError, ValueError) as error:
            return f"simcheck: error: {error}", 2
        # Rule ids are disjoint across the three tools, so filtering
        # each run against the shared snapshot is exact.
        results = {tool: filter_new(results[tool], allowed)
                   for tool in rules_by_tool}
    total = sum(len(results[tool]) for tool in rules_by_tool)
    if args.format == "json":
        text = json.dumps({
            "count": total,
            "tools": {tool: {
                "count": len(results[tool]),
                "findings": [finding.as_dict()
                             for finding in results[tool]],
            } for tool in rules_by_tool},
        }, indent=2)
    elif args.format == "sarif":
        text = format_merged_sarif(
            [(tool, results[tool], rules)
             for tool, rules in rules_by_tool.items()])
    else:
        sections = [format_findings_text(results[tool], tool=tool)
                    for tool in rules_by_tool]
        sections.append(f"simcheck: {total} finding"
                        f"{'s' if total != 1 else ''} across "
                        f"{len(rules_by_tool)} analyzers")
        text = "\n".join(sections)
    if stats is not None:
        if args.format == "text":
            text = f"{text}\n{stats.render()}"
        else:
            # Keep stdout a valid JSON/SARIF document.
            print(stats.render(), file=sys.stderr)
    return text, (1 if total else 0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    result = args.handler(args)
    if isinstance(result, tuple):
        text, code = result
    else:
        text, code = result, 0
    print(text)
    return code

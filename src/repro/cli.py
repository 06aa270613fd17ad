"""Command-line interface: regenerate any paper artefact.

Usage::

    python -m repro report --section fig4_clock_sync
    python -m repro report --output run.md
    python -m repro cell --ratio 80/20 --location different_region \
        --slaves 4 --users 250
    python -m repro drill --seed 42 --slo --out drill/

``repro report --section NAME`` prints the same text the benchmark
writes to ``benchmarks/results/NAME.txt``.  ``cell`` and ``drill`` are
the two run verbs: they share their run flags and one output rule
(docs/CLI.md), and ``_observed_run`` wires the observers for both.
"""

from __future__ import annotations

import argparse
import math
from typing import Optional, Sequence

from .experiments import (LocationConfig, PAPER_50_50, PAPER_80_20,
                          PROFILES, run_experiment)
from .experiments.report import SECTIONS

__all__ = ["main", "build_parser"]


def _location(value: str) -> LocationConfig:
    try:
        return LocationConfig(value)
    except ValueError:
        choices = ", ".join(loc.value for loc in LocationConfig)
        raise argparse.ArgumentTypeError(
            f"unknown location {value!r} (choose from {choices})")


def _number(value: str) -> float:
    """``value`` as a float, NaN when it is not a number at all."""
    try:
        return float(value)
    except ValueError:
        return math.nan


def _seconds(value: str) -> float:
    """A period in sim seconds: finite and positive (NaN is neither)."""
    period = _number(value)
    if not 0 < period < math.inf:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a finite, positive number of sim seconds")
    return period


def _tolerance(value: str) -> float:
    """A tolerance in sim seconds: finite and non-negative."""
    tolerance = _number(value)
    if not 0 <= tolerance < math.inf:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a finite, non-negative number of sim "
            f"seconds")
    return tolerance


def _run_flags(users: int) -> argparse.ArgumentParser:
    """The flags ``cell`` and ``drill`` share (a fresh parent per verb:
    argparse shares a parent's actions, so one default would leak)."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--seed", type=int, default=0)
    flags.add_argument("--users", type=int, default=users)
    flags.add_argument("--slaves", type=int, default=2)
    flags.add_argument("--out", default=None, metavar="DIR",
                       help="write the trace artifacts and every "
                            "document the run produced to DIR")
    flags.add_argument("--format", choices=("text", "json"),
                       default="text",
                       help="json prints the run's report as one "
                            "document (byte-identical per seed)")
    flags.add_argument("--sanitize", action="store_true",
                       help="attach the sim-time race sanitizer "
                            "(summary on stderr); exit 1 on any "
                            "stale write-back")
    flags.add_argument("--wall-profile", action="store_true",
                       help="attach the wall-clock profiler (table on "
                            "stderr, wallprof.* under --out)")
    flags.add_argument("--slo", nargs="?", const="", default=None,
                       metavar="SPEC",
                       help="attach the live SLO plane, with the JSON "
                            "spec SPEC or else the built-in one")
    flags.add_argument("--watch", type=_seconds, default=None,
                       metavar="SECONDS",
                       help="also render a watchboard frame every "
                            "SECONDS sim seconds (implies --slo)")
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate results from 'Application-Managed "
                    "Database Replication on Virtualized Cloud "
                    "Environments' (ICDE 2012)")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="the paper's tables, one section per artefact "
                       "(Markdown; a single --section prints bare)")
    report.add_argument("--section", action="append", default=None,
                        choices=list(SECTIONS), metavar="NAME",
                        help="only this section (repeatable; default: "
                             "every section)")
    report.add_argument("--scale", choices=sorted(PROFILES),
                        default="quick")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--output", default=None,
                        help="write to this path instead of stdout; a "
                             "file that already holds <!-- section: "
                             "NAME --> markers gets only those blocks "
                             "rewritten")
    report.set_defaults(handler=_run_report)

    cell = sub.add_parser(
        "cell", parents=[_run_flags(users=100)],
        help="run one experiment cell (one point of a Fig. 2/3/5/6 "
             "grid), observed as the flags ask")
    cell.add_argument("--ratio", choices=("50/50", "80/20"),
                      default="50/50")
    cell.add_argument("--location", type=_location,
                      default=LocationConfig.SAME_ZONE)
    cell.add_argument("--scale", choices=sorted(PROFILES),
                      default="quick")
    cell.add_argument("--monitor-period", type=_seconds, default=5.0,
                      help="cluster-monitor sampling period of a "
                           "traced cell (sim seconds)")
    cell.set_defaults(handler=_run_cell)

    drill = sub.add_parser(
        "drill", parents=[_run_flags(users=20)],
        help="run a fault-injection drill; print the recovery report "
             "(time-to-detect, time-to-recover, lost commits, "
             "staleness spike)")
    drill.add_argument("--plan", choices=("default", "random"),
                       default="default",
                       help="'default' exercises every fault kind and "
                            "ends in a master crash; 'random' draws a "
                            "seeded plan")
    drill.add_argument("--faults", type=int, default=5,
                       help="fault count for --plan random")
    drill.add_argument("--master-crash", action="store_true",
                       help="append a master crash to a random plan")
    drill.add_argument("--tolerance", type=_tolerance, default=30.0,
                       help="SLO detection window past a fault's own "
                            "duration (sim seconds, default 30)")
    drill.set_defaults(handler=_run_drill)

    analyze = sub.add_parser(
        "analyze", help="diagnose trace artifacts: staleness "
                        "waterfalls, heartbeat reconciliation and the "
                        "bottleneck verdict")
    analyze.add_argument("--dir", default="traces",
                         help="directory holding spans.jsonl / "
                              "metrics.jsonl / trace.json from "
                              "'repro cell|drill --out'")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text")
    analyze.set_defaults(handler=_run_analyze)

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
    check.set_defaults(handler=_run_check)

    return parser


def _run_report(args):
    import os

    from .experiments.report import (marked_sections, refresh_document,
                                     render_report, render_sections)
    profile = PROFILES[args.scale]
    marked = []
    if args.output and os.path.exists(args.output):
        with open(args.output, encoding="utf-8") as handle:
            document = handle.read()
        try:
            marked = marked_sections(document)
        except ValueError as error:
            return f"repro report: error: {args.output}: {error}", 2
    if marked:
        # The file names its own sections.
        if args.section:
            return (f"repro report: error: {args.output} holds section "
                    f"markers, which name the sections; drop --section", 2)
        texts = render_sections(marked, profile, args.seed)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(refresh_document(document, texts))
        return f"refreshed {len(texts)} sections in {args.output}"
    names = args.section or list(SECTIONS)
    texts = render_sections(names, profile, args.seed)
    text = (texts[names[0]] if len(names) == 1
            else render_report(texts, profile, args.seed))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        return f"report written to {args.output}"
    return text


def _run_cell(args):
    from .obs import Observability
    profile = PROFILES[args.scale]
    factory = PAPER_50_50 if args.ratio == "50/50" else PAPER_80_20
    config = factory(args.location, args.slaves, args.users,
                     profile.phases, seed=args.seed,
                     baseline_duration=profile.baseline_duration)
    observe = (Observability(monitor_period=args.monitor_period)
               if args.out or args.format == "json" else None)

    def text(result) -> str:
        delay = (f"{result.relative_delay_ms:.1f} ms"
                 if result.relative_delay_ms is not None else "n/a")
        percentile_text = "  ".join(
            f"p{int(p)}={value * 1000:.0f}ms"
            for p, value in sorted(result.latency_percentiles_s.items()))
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

    def document(result, paths) -> dict:
        return {
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
            "artifacts": paths,
            "spans": len(observe.tracer.spans),
            "droppedSpans": observe.tracer.dropped,
            "profile": observe.profiler.snapshot(),
        }

    return _observed_run(
        args, observe,
        lambda **planes: (run_experiment(config, **planes), {}),
        text, document)


def _run_drill(args):
    from .chaos import (DrillConfig, FaultSchedule, default_schedule,
                        render_report_text, run_drill)
    from .obs import Observability
    from .sim import RandomStreams

    if args.plan == "default":
        if args.slaves < 2:
            return ("repro drill: error: the default plan targets "
                    "slave-1 and slave-2; use --slaves >= 2 or "
                    "--plan random", 2)
        schedule = default_schedule()
    else:
        schedule = FaultSchedule.random_plan(
            RandomStreams(args.seed), horizon=DrillConfig().phases.total,
            slaves=[f"slave-{i + 1}" for i in range(args.slaves)],
            region_pairs=[("us-east-1", "eu-west-1")],
            n_faults=args.faults,
            include_master_crash=args.master_crash)
    config = DrillConfig(seed=args.seed, n_users=args.users,
                         n_slaves=args.slaves, schedule=schedule)

    def run(**planes):
        result = run_drill(config, **planes, tolerance_s=args.tolerance)
        return result, {"recovery.json": result.report}

    return _observed_run(
        args, Observability(), run,
        lambda result: render_report_text(result.report),
        lambda result, paths: result.report)


def _observed_run(args, observe, run, text, document):
    """Attach the observers the flags ask for, run, write ``--out``
    and return ``(stdout, exit code)`` by the one output rule in
    docs/CLI.md.

    ``run(observe=, sanitizer=, slo=)`` returns the result and the
    JSON documents to save under ``--out``; ``text(result)`` and
    ``document(result, paths)`` render the run's report.
    """
    import json
    import os
    import sys

    session = sanitizer = wallprof = None
    if args.slo is not None or args.watch is not None:
        from .obs.live import LiveSession, default_slo_spec, load_slo_file
        try:
            spec = (load_slo_file(args.slo) if args.slo
                    else default_slo_spec())
        except (OSError, ValueError, KeyError, TypeError) as error:
            return (f"repro {args.command}: error: bad SLO spec "
                    f"{args.slo}: {error}", 2)
        session = LiveSession(spec, watch_interval=args.watch)
    if args.sanitize:
        from .analysis.race import RaceSanitizer
        sanitizer = RaceSanitizer()
    if args.wall_profile:
        from .perf import WallProfiler
        wallprof = WallProfiler()
        wallprof.start()
    result, documents = run(observe=observe, sanitizer=sanitizer,
                            slo=session)

    # Wall timings and the sanitizer summary go to stderr, so stdout
    # stays byte-identical per seed with or without them.
    files = {}
    if wallprof is not None:
        from .perf import render_wallprof
        wallprof.stop()
        table = render_wallprof(wallprof)
        print(table, file=sys.stderr)
        files["wallprof.txt"] = table
        files["wallprof.collapsed"] = wallprof.collapsed()
    code = 0
    if sanitizer is not None:
        reports = sanitizer.reports
        print(f"race sanitizer: {len(reports)} report"
              f"{'s' if len(reports) != 1 else ''}", file=sys.stderr)
        for report in reports:
            print(f"  {report.render()}", file=sys.stderr)
        code = 1 if reports else 0
    if session is not None:
        documents["incidents.json"] = result.incidents
        if session.board is not None:
            files["watch.txt"] = session.render_watch()

    paths = {}
    if args.out:
        paths = observe.write_artifacts(args.out)
        for name, value in documents.items():
            files[name] = json.dumps(value, sort_keys=True,
                                     separators=(",", ":"))
        for name, content in files.items():
            paths[name] = os.path.join(args.out, name)
            with open(paths[name], "w", encoding="utf-8") as handle:
                handle.write(content + "\n")
    if args.format == "json":
        return (json.dumps(document(result, paths), sort_keys=True,
                           separators=(",", ":")), code)
    blocks = [text(result)]
    if session is not None:
        from .obs.live import render_incidents_text
        blocks.append(render_incidents_text(result.incidents))
    if "watch.txt" in files:
        blocks.append(files["watch.txt"])
    if paths:
        blocks.append("\n".join(f"wrote {paths[name]}"
                                for name in sorted(paths)))
    return "\n\n".join(blocks), code


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


def _split_rule_lists(values: Optional[Sequence[str]]) -> list[str]:
    rules: list[str] = []
    for value in values or ():
        rules.extend(rule.strip() for rule in value.split(",")
                     if rule.strip())
    return rules


def _run_check(args) -> tuple[str, int]:
    import json
    import sys

    from .analysis import (LintStats, all_rules, check_paths,
                           format_findings_text, format_merged_sarif,
                           load_config)
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

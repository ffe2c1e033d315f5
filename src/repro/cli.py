"""Command-line interface: run models, print timelines and statistics.

Examples::

    pyrtos-sc run system.json --duration 10ms --timeline --stats
    pyrtos-sc run system.json --svg out.svg --vcd out.vcd
    pyrtos-sc fig6                      # the paper's §5 demo
    pyrtos-sc mpeg2 --frames 24         # the MPEG-2 SoC case study
    pyrtos-sc lint system.json          # static model lint, no simulation
    pyrtos-sc lint fig6 examples/*.py --strict --json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .errors import BuildError, VerifyError
from .kernel.time import format_time, parse_time
from .mcse.builder import build_system
from .trace.recorder import TraceRecorder
from .trace.statistics import (
    format_report,
    relation_stats,
    task_stats_from_functions,
)
from .trace.svg import save_svg
from .trace.timeline import TimelineChart
from .trace.vcd import save_vcd


def _emit_json(payload, destination=None) -> str:
    """Canonical JSON emission for every subcommand *and* the gateway.

    One encoding -- ``indent=2``, sorted keys, trailing newline -- so
    CLI output, ``--json`` files and ``repro.serve`` HTTP bodies are
    all byte-stable for identical payloads.  ``destination`` is
    ``None`` (stdout), a path, or a file-like object; the rendered
    text (without the trailing newline) is returned either way.
    """
    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination is None:
        sys.stdout.write(text + "\n")
    elif isinstance(destination, (str, os.PathLike)):
        with open(destination, "w") as handle:
            handle.write(text + "\n")
    else:
        destination.write(text + "\n")
    return text


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeline", action="store_true",
                        help="print an ASCII TimeLine chart")
    parser.add_argument("--width", type=int, default=100,
                        help="TimeLine width in columns")
    parser.add_argument("--stats", action="store_true",
                        help="print the Figure-8 statistics report")
    parser.add_argument("--svg", metavar="PATH",
                        help="write the TimeLine as SVG")
    parser.add_argument("--vcd", metavar="PATH",
                        help="write the trace as VCD")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="write raw trace records as JSON lines")
    parser.add_argument("--html", metavar="PATH",
                        help="write a self-contained HTML report")


def _emit_outputs(args, system, recorder) -> None:
    needs_chart = args.timeline or args.svg
    chart = TimelineChart.from_recorder(recorder) if needs_chart else None
    if args.timeline:
        print(chart.render_ascii(width=args.width))
    if args.stats:
        print(
            format_report(
                task_stats_from_functions(system.functions.values()),
                relation_stats(system.relations.values()),
                system.processors.values(),
                getattr(system, "domains", {}).values(),
            )
        )
    if args.svg:
        save_svg(chart, args.svg, title=system.name)
        print(f"wrote {args.svg}")
    if args.vcd:
        save_vcd(recorder, args.vcd)
        print(f"wrote {args.vcd}")
    if args.jsonl:
        recorder.save_jsonl(args.jsonl)
        print(f"wrote {args.jsonl}")
    if args.html:
        from .trace.html import save_report

        save_report(system, recorder, args.html, title=system.name)
        print(f"wrote {args.html}")


def cmd_run(args) -> int:
    with open(args.spec) as handle:
        spec = json.load(handle)
    system = build_system(spec)
    recorder = TraceRecorder(system.sim)
    duration = parse_time(args.duration) if args.duration else None
    end = system.run(duration)
    print(f"simulated {system.name!r} to t={format_time(end)}")
    _emit_outputs(args, system, recorder)
    return 0


def cmd_fig6(args) -> int:
    """Run the paper's §5 example and reproduce its measurements."""
    from .analysis.measurements import reaction_latencies
    from .workloads.fig6 import fig6_spec

    system = build_system(fig6_spec(engine=args.engine))
    recorder = TraceRecorder(system.sim)
    system.run()
    latencies = reaction_latencies(recorder, "Clk", "Function_1")
    print(f"reaction Clk -> Function_1: {format_time(latencies[0])} "
          "(paper measurement (1): 15us)")
    _emit_outputs(args, system, recorder)
    return 0


def cmd_mpeg2(args) -> int:
    from .workloads.mpeg2 import Mpeg2Soc

    soc = Mpeg2Soc(frames=args.frames, engine=args.engine, seed=args.seed)
    recorder = TraceRecorder(soc.system.sim) if (
        args.timeline or args.svg or args.vcd or args.jsonl or args.stats
        or args.html
    ) else None
    soc.run()
    print(soc.format_summary())
    if recorder is not None:
        _emit_outputs(args, soc.system, recorder)
    return 0


def cmd_report(args) -> int:
    """Offline analysis of a saved JSONL trace (no model needed)."""
    from .trace.statistics import task_stats_from_records

    recorder = TraceRecorder.load_jsonl(args.trace)
    print(f"loaded {len(recorder)} records, "
          f"{len(recorder.tasks())} tasks")
    chart = TimelineChart.from_recorder(recorder)
    if args.timeline:
        print(chart.render_ascii(width=args.width))
    if args.stats:
        print(format_report(task_stats_from_records(recorder)))
    if args.svg:
        save_svg(chart, args.svg)
        print(f"wrote {args.svg}")
    if args.vcd:
        save_vcd(recorder, args.vcd)
        print(f"wrote {args.vcd}")
    return 0


def cmd_campaign(args) -> int:
    """Run a Monte-Carlo campaign over the MPEG-2 SoC in parallel."""
    import functools

    from .analysis.montecarlo import format_campaign, monte_carlo
    from .campaign import mpeg2_experiment

    experiment = functools.partial(
        mpeg2_experiment, frames=args.frames, engine=args.engine
    )
    campaign = monte_carlo(
        experiment,
        runs=args.runs,
        base_seed=args.base_seed,
        workers=args.workers,
        cache=args.cache,
        timeout=args.timeout,
        retries=args.retries,
        progress=args.progress,
        strict=not args.keep_going,
    )
    print(format_campaign(campaign))
    stats = campaign.stats
    print(
        f"campaign: {stats['runs']} runs in {stats['wall_s']:.2f}s "
        f"(workers={stats['workers']}, cache hits={stats['cache_hits']} "
        f"misses={stats['cache_misses']}, failed={stats['failed']})"
    )
    if args.json:
        payload = {
            "runs": campaign.runs,
            "stats": stats,
            "metrics": {
                name: sample.summary()
                for name, sample in campaign.items()
            },
            "failures": [f.describe() for f in campaign.failures],
        }
        _emit_json(payload, args.json)
        print(f"wrote {args.json}")
    return 0 if not campaign.failures else 1


def _lint_target(target: str, suppress):
    """Return a (location, Report, witnessable-spec) triple for one target.

    The third element is the builder spec dict for spec-backed targets
    (the witness harness can re-build and explore them), ``None`` for
    source files and targets without an injectable simulator.
    """
    from .analyze import analyze_source, analyze_system

    if target == "fig6":
        from .workloads.fig6 import fig6_spec

        spec = fig6_spec()
        return target, analyze_system(build_system(spec),
                                      suppress=suppress), spec
    if target == "mpeg2":
        from .workloads.mpeg2 import Mpeg2Soc

        soc = Mpeg2Soc(frames=1)
        return target, analyze_system(soc.system, suppress=suppress), None
    if target.endswith(".json"):
        with open(target) as handle:
            spec = json.load(handle)
        return target, analyze_system(build_system(spec),
                                      suppress=suppress), spec
    if target.endswith(".py"):
        report = analyze_source(target)
        report.suppress.update(suppress)
        if suppress:
            kept = []
            for diagnostic in report.diagnostics:
                if diagnostic.rule in report.suppress:
                    report.suppressed.append(diagnostic)
                else:
                    kept.append(diagnostic)
            report.diagnostics = kept
        return target, report, None
    raise SystemExit(
        f"pyrtos-sc lint: unknown target {target!r} "
        "(expected fig6, mpeg2, a .json spec, or a .py file)"
    )


def _witness_report(spec, report, horizon):
    """Run witness attempts for a report's ERRORs; returns outcome dicts.

    Confirmed and unconfirmed outcomes alike are appended to the report
    as INFO diagnostics, so an ERROR never ships without either a
    concrete witness or an explicit no-witness justification.
    """
    from .verify.witness import witness_findings, witnessable

    outcomes = witness_findings(spec, report, horizon=horizon)
    rendered = {}
    for rule_id, outcome in sorted(outcomes.items()):
        rendered[rule_id] = outcome.to_dict()
        status = "confirmed" if outcome.confirmed else "unconfirmed"
        report.add(
            rule_id, report.INFO, f"witness ({status})",
            outcome.justification,
        )
    for rule_id in sorted({d.rule for d in report.errors}):
        if not witnessable(rule_id):
            rendered[rule_id] = {
                "rule": rule_id, "confirmed": False,
                "justification": "rule makes no reachability claim; no "
                                 "dynamic witness exists by construction",
            }
    return rendered


def cmd_lint(args) -> int:
    """Statically analyze models and sources without simulating them."""
    if args.explain:
        from .analyze.diagnostics import explain_rule

        for rule_id in args.explain:
            try:
                print(explain_rule(rule_id))
            except KeyError as exc:
                raise SystemExit(f"pyrtos-sc lint: {exc.args[0]}")
            print()
        if not args.targets:
            return 0
    elif not args.targets:
        raise SystemExit(
            "pyrtos-sc lint: pass at least one target, or --explain RULE"
        )
    suppress = set()
    for chunk in args.suppress or ():
        suppress.update(part.strip() for part in chunk.split(",")
                        if part.strip())
    if args.apply and not args.fix:
        raise SystemExit("pyrtos-sc lint: --apply requires --fix")
    results = [_lint_target(target, suppress) for target in args.targets]
    witness_horizon = parse_time(args.witness_horizon) \
        if args.witness_horizon else None
    witnesses = {}
    if args.witness:
        for location, report, spec in results:
            if spec is None:
                continue
            outcome = _witness_report(spec, report, witness_horizon)
            if outcome:
                witnesses[location] = outcome
    fixes = {}
    if args.fix:
        from .analyze.fixes import plan_fixes

        for location, report, spec in results:
            if spec is None:
                continue
            planned = plan_fixes(spec, suppress=suppress)
            if planned:
                fixes[location] = planned
    failed = False
    if args.json:
        payload = []
        for location, report, _ in results:
            entry = report.to_dict()
            entry["target"] = location
            if location in witnesses:
                entry["witness"] = witnesses[location]
            if args.fix:
                entry["fixes"] = fixes.get(location, [])
            payload.append(entry)
            if not report.ok(strict=args.strict):
                failed = True
        _emit_json(payload)
    else:
        for location, report, _ in results:
            if len(results) > 1:
                print(f"== {location} ==")
            print(report.format_text())
            for fix in fixes.get(location, ()):
                status = ("discharges" if fix.get("discharged")
                          else "does NOT discharge")
                detail = {k: v for k, v in fix.items()
                          if k not in ("rule", "kind", "discharged")}
                print(f"fix [{fix['rule']}] {fix['kind']}: "
                      f"{json.dumps(detail, sort_keys=True)} "
                      f"({status} the finding)")
            if not report.ok(strict=args.strict):
                failed = True
    if args.apply:
        from .analyze.fixes import apply_fixes

        for location, _, spec in results:
            applicable = [fix for fix in fixes.get(location, ())
                          if fix.get("discharged")]
            if not applicable:
                continue
            if not location.endswith(".json"):
                raise SystemExit(
                    "pyrtos-sc lint: --apply needs a writable .json spec; "
                    f"{location!r} is a built-in target"
                )
            patched = apply_fixes(spec, applicable)
            _emit_json(patched, location)
            print(f"applied {len(applicable)} fix(es) to {location}",
                  file=sys.stderr)
    if args.sarif:
        from .analyze.sarif import SARIF_SCHEMA, SARIF_VERSION, \
            report_to_sarif

        runs = []
        for location, report, _ in results:
            runs.extend(report_to_sarif(
                report, artifact=location,
                witnesses=witnesses.get(location),
            )["runs"])
        log = {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION,
               "runs": runs}
        _emit_json(log, args.sarif)
        print(f"wrote {args.sarif}", file=sys.stderr)
    return 1 if failed else 0


def _verify_target_spec(target: str) -> dict:
    """Resolve a ``verify`` target name to a builder spec."""
    if target == "fig6":
        from .workloads.fig6 import fig6_spec

        return fig6_spec()
    if target == "fig6-deadlock":
        from .workloads.fig6 import fig6_crossed_mutex_spec

        return fig6_crossed_mutex_spec()
    if target == "fig6-miss":
        from .workloads.fig6 import fig6_deadline_miss_spec

        return fig6_deadline_miss_spec()
    if target == "smp-miss":
        from .smp import smp_miss_spec

        return smp_miss_spec()
    if target.endswith(".json"):
        with open(target) as handle:
            return json.load(handle)
    raise SystemExit(
        f"pyrtos-sc verify: unknown target {target!r} "
        "(expected fig6, fig6-deadlock, fig6-miss, smp-miss, "
        "or a .json spec)"
    )


def cmd_verify(args) -> int:
    """Model-check a spec over every schedule within the bound."""
    from .verify import build_report, replay_spec, spec_factory, verify_spec

    spec = _verify_target_spec(args.target)
    horizon = parse_time(args.horizon) if args.horizon else None
    bounds = {
        "preemption_bound": (
            parse_time(args.preemption_bound)
            if args.preemption_bound else None
        ),
        "starvation_bound": (
            parse_time(args.starvation_bound)
            if args.starvation_bound else None
        ),
    }
    result = verify_spec(
        spec,
        strategy=args.strategy,
        horizon=horizon,
        max_depth=args.depth,
        sanitize=args.sanitize,
        max_runs=args.max_runs,
        runs=args.runs,
        seed=args.seed,
        **bounds,
    )
    report = build_report(result, factory=spec_factory(spec))
    if args.json:
        payload = result.to_dict()
        payload["report"] = report.to_dict()
        payload["target"] = args.target
        _emit_json(payload)
    else:
        stats = result.stats
        print(
            f"verdict: {result.verdict()} (strategy={result.strategy}, "
            f"runs={stats.runs}, states={stats.states}, "
            f"dedup={stats.dedup_hit_rate:.0%}, "
            f"symmetry_pruned={stats.symmetry_pruned})"
        )
        if len(report):
            print(report.format_text())
        counterexample = result.counterexample
        if counterexample is not None:
            print(counterexample.describe())
    if args.replay:
        counterexample = result.counterexample
        if counterexample is None:
            print("nothing to replay: no counterexample found")
        else:
            system, recorder, outcome = replay_spec(
                spec, counterexample.choices,
                horizon=horizon, max_depth=args.depth, **bounds,
            )
            exhibited = [v.property_id for v in outcome.violations]
            print(
                f"replayed {len(counterexample.choices)} choice(s) to "
                f"t={format_time(outcome.end_time)}; violations: "
                + (", ".join(exhibited) if exhibited else "none")
            )
            _emit_outputs(args, system, recorder)
    return 0 if result.ok else 1


def cmd_serve(args) -> int:
    """Run the simulation-as-a-service HTTP gateway."""
    from .serve import Gateway

    gateway = Gateway(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        rate=args.rate,
        burst=args.burst,
        cache=None if args.no_cache else args.cache,
        cache_max_entries=args.cache_max_entries,
        strict_lint=not args.lax_lint,
        job_timeout=args.job_timeout,
        job_retries=args.retries,
        drain_timeout=args.drain_timeout,
        verbose=args.verbose,
    )
    gateway.start()
    print(
        f"pyrtos-sc serve: listening on http://{gateway.host}:{gateway.port} "
        f"(workers={args.workers}, queue={args.queue_size}, "
        f"cache={'off' if args.no_cache else args.cache})",
        flush=True,
    )
    gateway.install_signal_handlers()
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        pass
    clean = gateway.drain()
    served = int(gateway.metrics["requests"].total())
    print(f"pyrtos-sc serve: {'drained cleanly' if clean else 'drain timed out'}"
          f" after {served} request(s)", flush=True)
    return 0 if clean else 1


def cmd_codegen(args) -> int:
    from .codegen import generate_c

    with open(args.spec) as handle:
        spec = json.load(handle)
    paths = generate_c(spec, args.out)
    for path in paths:
        print(f"wrote {path}")
    print(
        f"build with: cc -O2 {args.out}/app.c {args.out}/rtos_port_posix.c "
        "-lpthread -o app"
    )
    return 0


def _corpus_catalogue() -> dict:
    """The full scenario vocabulary: generators, policies, personalities."""
    from .corpus import GENERATORS
    from .personality import PERSONALITIES
    from .rtos.policies import POLICIES

    def _doc(cls) -> str:
        doc = (cls.__doc__ or "").strip().splitlines()
        return doc[0].rstrip(".") if doc else ""

    return {
        "generators": {
            name: GENERATORS[name].description
            for name in sorted(GENERATORS)
        },
        "policies": {
            name: _doc(POLICIES[name]) for name in sorted(POLICIES)
        },
        "personalities": {
            name: PERSONALITIES[name].description
            for name in sorted(PERSONALITIES)
        },
    }


def cmd_corpus(args) -> int:
    """Generate one corpus scenario spec (or list the catalogue)."""
    from .corpus import generate, spec_digest

    if args.list or args.json or not args.kind:
        catalogue = _corpus_catalogue()
        if args.json:
            _emit_json(catalogue, args.out)
            return 0
        for section, entries in catalogue.items():
            print(f"{section}:")
            width = max(len(name) for name in entries)
            for name, description in entries.items():
                print(f"  {name:<{width}}  {description}")
        return 0
    params = json.loads(args.params) if args.params else None
    spec = generate(args.kind, args.seed, params)
    if args.digest:
        print(spec_digest(spec))
        return 0
    _emit_json(spec, args.out)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_batch_run(args) -> int:
    """Fan a batch matrix through the cached campaign runner."""
    from .corpus import load_matrix, run_matrix

    doc = load_matrix(args.matrix)
    report = run_matrix(
        doc,
        workers=args.workers,
        cache=args.cache,
        timeout=args.timeout,
        progress=args.progress,
    )
    _emit_json(report, args.out)
    summary = report["summary"]
    if args.out:
        print(
            f"{summary['completed']}/{summary['cells']} cells "
            f"({summary['cache_hits']} cached, "
            f"{summary['violating']} violating, "
            f"{summary['failed']} failed) -> {args.out}"
        )
    return 1 if report["failures"] else 0


def cmd_compare(args) -> int:
    """Diff two batch-run reports: verdict flips and metric drift."""
    import os.path

    from .corpus import compare_reports, format_comparison, load_report

    report_a = load_report(args.report_a)
    report_b = load_report(args.report_b)
    diff = compare_reports(
        report_a, report_b,
        label_a=os.path.basename(args.report_a),
        label_b=os.path.basename(args.report_b),
    )
    if args.json:
        _emit_json(diff)
    else:
        print(format_comparison(diff))
    return 0 if diff["identical"] else 1


def cmd_fuzz(args) -> int:
    """Fuzz generated scenarios; freeze findings as regression seeds."""
    from .corpus import (
        DEFAULT_HORIZON,
        PipelineOptions,
        check_seed,
        fuzz,
        iter_seed_paths,
        load_seed,
    )

    seeds_dir = args.seeds_dir
    if args.replay:
        paths = iter_seed_paths(seeds_dir)
        if not paths:
            print(f"no seeds under {seeds_dir}")
            return 0
        failed = 0
        for path in paths:
            result = check_seed(load_seed(path), path=path)
            status = "ok" if result["ok"] else "MISMATCH"
            print(f"{status}  {path}")
            if not result["ok"]:
                failed += 1
                print(f"    expected {result['expected'][:16]}..., "
                      f"got {result['actual'][:16]}...")
        print(f"replayed {len(paths)} seed(s), {failed} mismatch(es)")
        return 1 if failed else 0

    horizon = parse_time(args.horizon) if args.horizon else DEFAULT_HORIZON
    options = PipelineOptions(
        horizon=horizon,
        verify=not args.no_verify,
        verify_max_runs=args.max_runs,
        verify_max_depth=args.depth,
    )
    report = fuzz(
        seed=args.seed,
        budget=args.budget,
        kinds=args.kind or None,
        seeds_dir=seeds_dir,
        options=options,
        max_wall_s=args.max_wall,
        write=not args.no_write,
        progress=print if not args.json else None,
    )
    if args.json:
        _emit_json(report.to_dict(), args.out)
    else:
        print(
            f"fuzzed {report.scenarios}/{report.budget} scenario(s) in "
            f"{report.wall_s:.1f}s ({report.scenarios_per_second:.1f}/s)"
        )
        print(f"stream sha256: {report.stream_sha256}")
        print(
            f"findings: {len(report.findings)} "
            f"({report.new_seeds} new, {report.known} known, "
            f"{report.shrink_runs} shrink runs)"
        )
    if args.check and report.new_seeds:
        print(f"--check: {report.new_seeds} new seed(s) found", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyrtos-sc",
        description="Generic RTOS model simulation (Le Moigne et al., DATE'04)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a JSON system spec")
    run_parser.add_argument("spec", help="path to the JSON specification")
    run_parser.add_argument("--duration", help='e.g. "10ms" (default: to idle)')
    _add_output_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    fig6_parser = sub.add_parser("fig6", help="run the paper's §5 example")
    fig6_parser.add_argument("--engine", default="procedural",
                             choices=("procedural", "threaded"))
    _add_output_flags(fig6_parser)
    fig6_parser.set_defaults(func=cmd_fig6)

    mpeg2_parser = sub.add_parser("mpeg2", help="run the MPEG-2 SoC study")
    mpeg2_parser.add_argument("--frames", type=int, default=12)
    mpeg2_parser.add_argument("--seed", type=int, default=0)
    mpeg2_parser.add_argument("--engine", default="procedural",
                              choices=("procedural", "threaded"))
    _add_output_flags(mpeg2_parser)
    mpeg2_parser.set_defaults(func=cmd_mpeg2)

    report_parser = sub.add_parser(
        "report", help="analyze a saved JSONL trace offline"
    )
    report_parser.add_argument("trace", help="path to a --jsonl trace file")
    report_parser.add_argument("--timeline", action="store_true")
    report_parser.add_argument("--width", type=int, default=100)
    report_parser.add_argument("--stats", action="store_true")
    report_parser.add_argument("--svg", metavar="PATH")
    report_parser.add_argument("--vcd", metavar="PATH")
    report_parser.set_defaults(func=cmd_report)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a parallel Monte-Carlo campaign (MPEG-2 SoC grid)",
    )
    campaign_parser.add_argument("--runs", type=int, default=16,
                                 help="number of seeded runs")
    campaign_parser.add_argument("--frames", type=int, default=8)
    campaign_parser.add_argument("--base-seed", type=int, default=0)
    campaign_parser.add_argument("--engine", default="procedural",
                                 choices=("procedural", "threaded"))
    campaign_parser.add_argument("--workers", type=int, default=1,
                                 help="worker processes (1 = in-process)")
    campaign_parser.add_argument("--cache", metavar="DIR", default=None,
                                 help="result-cache directory "
                                      "(e.g. .campaign-cache)")
    campaign_parser.add_argument("--timeout", type=float, default=None,
                                 help="per-run wall-clock limit in seconds")
    campaign_parser.add_argument("--retries", type=int, default=0,
                                 help="extra attempts per failed run")
    campaign_parser.add_argument("--progress", action="store_true",
                                 help="live progress/ETA on stderr")
    campaign_parser.add_argument("--keep-going", action="store_true",
                                 help="record failures instead of aborting")
    campaign_parser.add_argument("--json", metavar="PATH",
                                 help="write the campaign summary as JSON")
    campaign_parser.set_defaults(func=cmd_campaign)

    lint_parser = sub.add_parser(
        "lint",
        help="statically analyze models/sources without simulating",
    )
    lint_parser.add_argument(
        "targets", nargs="*",
        help="fig6 | mpeg2 | spec.json | experiment.py (any mix)",
    )
    lint_parser.add_argument("--json", action="store_true",
                             help="machine-readable JSON on stdout")
    lint_parser.add_argument("--strict", action="store_true",
                             help="exit nonzero on warnings, not just errors")
    lint_parser.add_argument("--suppress", action="append", metavar="RULES",
                             help="comma-separated rule ids to suppress "
                                  "(repeatable)")
    lint_parser.add_argument("--explain", action="append", metavar="RULE",
                             help="print the catalogue entry and long-form "
                                  "explanation of a rule (repeatable)")
    lint_parser.add_argument("--sarif", metavar="PATH",
                             help="write findings as a SARIF 2.1.0 log")
    lint_parser.add_argument("--witness", action="store_true",
                             help="hand every ERROR to the bounded "
                                  "verifier for a concrete witness "
                                  "(spec-backed targets only)")
    lint_parser.add_argument("--witness-horizon", metavar="TIME",
                             default="50ms",
                             help="time bound for witness exploration "
                                  "(default: 50ms)")
    lint_parser.add_argument("--fix", action="store_true",
                             help="plan machine-applicable spec patches "
                                  "for fixable findings (RTS181/182/183), "
                                  "each re-linted for discharge")
    lint_parser.add_argument("--apply", action="store_true",
                             help="with --fix: write the discharged "
                                  "patches back to .json spec targets")
    lint_parser.set_defaults(func=cmd_lint)

    verify_parser = sub.add_parser(
        "verify",
        help="model-check a spec over all bounded schedules",
    )
    verify_parser.add_argument(
        "target",
        help="fig6 | fig6-deadlock | fig6-miss | smp-miss | spec.json",
    )
    verify_parser.add_argument("--strategy", default="dfs",
                               choices=("dfs", "random"),
                               help="exhaustive DFS or seeded sampling")
    verify_parser.add_argument("--horizon", metavar="TIME",
                               help='per-run time bound, e.g. "2ms" '
                                    "(default: run to idle)")
    verify_parser.add_argument("--depth", type=int, default=64,
                               help="maximum explored choice depth")
    verify_parser.add_argument("--max-runs", type=int, default=10_000,
                               help="DFS run budget")
    verify_parser.add_argument("--runs", type=int, default=100,
                               help="samples for --strategy random")
    verify_parser.add_argument("--seed", type=int, default=0,
                               help="base seed for --strategy random")
    verify_parser.add_argument("--sanitize", action="store_true",
                               help="run the nondeterminism sanitizer "
                                    "(SAN301/302/303) during exploration")
    verify_parser.add_argument("--preemption-bound", metavar="TIME",
                               default=None,
                               help="check RTS-V006: max time a ready "
                                    "higher-priority task may wait behind "
                                    "a lower-priority running task")
    verify_parser.add_argument("--starvation-bound", metavar="TIME",
                               default=None,
                               help="check RTS-V007: max continuous READY "
                                    "time before a task counts as starved")
    verify_parser.add_argument("--json", action="store_true",
                               help="machine-readable JSON on stdout")
    verify_parser.add_argument("--replay", action="store_true",
                               help="re-execute the counterexample with a "
                                    "trace recorder (combine with --svg, "
                                    "--vcd, --timeline, ...)")
    _add_output_flags(verify_parser)
    verify_parser.set_defaults(func=cmd_verify)

    serve_parser = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP gateway",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8080,
                              help="listen port (0 = ephemeral)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="worker threads executing jobs")
    serve_parser.add_argument("--queue-size", type=int, default=16,
                              help="bounded admission queue; overflow = 429")
    serve_parser.add_argument("--rate", type=float, default=None,
                              help="per-client requests/second "
                                   "(default: unlimited)")
    serve_parser.add_argument("--burst", type=int, default=10,
                              help="per-client token-bucket burst")
    serve_parser.add_argument("--cache", metavar="DIR",
                              default=".serve-cache",
                              help="job-dedup cache directory")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="disable the on-disk dedup cache")
    serve_parser.add_argument("--cache-max-entries", type=int, default=1024,
                              help="LRU bound on cached results")
    serve_parser.add_argument("--lax-lint", action="store_true",
                              help="admit specs with lint warnings "
                                   "(errors still reject)")
    serve_parser.add_argument("--job-timeout", type=float, default=None,
                              help="per-job wall-clock limit in seconds")
    serve_parser.add_argument("--retries", type=int, default=0,
                              help="extra attempts per failed job")
    serve_parser.add_argument("--drain-timeout", type=float, default=30.0,
                              help="seconds to finish in-flight jobs on "
                                   "SIGTERM")
    serve_parser.add_argument("--verbose", action="store_true",
                              help="per-request logging on stderr")
    serve_parser.set_defaults(func=cmd_serve)

    codegen_parser = sub.add_parser(
        "codegen", help="generate a C application from a JSON spec"
    )
    codegen_parser.add_argument("spec", help="path to the JSON specification")
    codegen_parser.add_argument("out", help="output directory")
    codegen_parser.set_defaults(func=cmd_codegen)

    corpus_parser = sub.add_parser(
        "corpus",
        help="generate a scenario spec from the corpus generators",
    )
    corpus_parser.add_argument(
        "kind", nargs="?",
        help="generator kind (omit or use --list for the catalogue)",
    )
    corpus_parser.add_argument("--seed", type=int, default=0,
                               help="scenario seed")
    corpus_parser.add_argument("--params", metavar="JSON",
                               help='generator parameters, e.g. '
                                    '\'{"n": 5, "utilization": 0.9}\'')
    corpus_parser.add_argument("--out", metavar="PATH",
                               help="write the spec JSON here "
                                    "(default: stdout)")
    corpus_parser.add_argument("--digest", action="store_true",
                               help="print only the canonical spec sha256")
    corpus_parser.add_argument("--json", action="store_true",
                               help="emit the catalogue (generators, "
                                    "scheduling policies, personalities) "
                                    "as JSON")
    corpus_parser.add_argument("--list", action="store_true",
                               help="list the generator catalogue")
    corpus_parser.set_defaults(func=cmd_corpus)

    batch_parser = sub.add_parser(
        "batch-run",
        help="run a declarative batch matrix through the campaign runner",
    )
    batch_parser.add_argument("matrix", help="path to the matrix JSON")
    batch_parser.add_argument("--workers", type=int, default=1,
                              help="worker processes (1 = in-process)")
    batch_parser.add_argument("--cache", metavar="DIR", default=None,
                              help="campaign result-cache directory")
    batch_parser.add_argument("--timeout", type=float, default=None,
                              help="per-cell wall-clock limit in seconds")
    batch_parser.add_argument("--progress", action="store_true",
                              help="live progress/ETA on stderr")
    batch_parser.add_argument("--out", metavar="PATH",
                              help="write the report JSON here "
                                   "(default: stdout)")
    batch_parser.set_defaults(func=cmd_batch_run)

    compare_parser = sub.add_parser(
        "compare",
        help="diff two batch-run reports (verdict flips, metric drift)",
    )
    compare_parser.add_argument("report_a", help="baseline report JSON")
    compare_parser.add_argument("report_b", help="candidate report JSON")
    compare_parser.add_argument("--json", action="store_true",
                                help="machine-readable JSON on stdout")
    compare_parser.set_defaults(func=cmd_compare)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="fuzz generated scenarios through lint+simulate+verify",
    )
    fuzz_parser.add_argument("--seed", type=int, default=0,
                             help="fuzz stream seed")
    fuzz_parser.add_argument("--budget", type=int, default=100,
                             help="number of scenarios to generate")
    fuzz_parser.add_argument("--kind", action="append", metavar="KIND",
                             help="restrict to this generator (repeatable)")
    fuzz_parser.add_argument("--seeds-dir", default="tests/corpus/seeds",
                             help="regression-seed corpus directory")
    fuzz_parser.add_argument("--horizon", metavar="TIME",
                             help='per-scenario time bound (default 200ms)')
    fuzz_parser.add_argument("--depth", type=int, default=12,
                             help="verify-stage max choice depth")
    fuzz_parser.add_argument("--max-runs", type=int, default=32,
                             help="verify-stage DFS run budget")
    fuzz_parser.add_argument("--max-wall", type=float, default=None,
                             help="wall-clock bound in seconds (covers a "
                                  "prefix of the deterministic stream)")
    fuzz_parser.add_argument("--no-verify", action="store_true",
                             help="skip the bounded model-checking stage")
    fuzz_parser.add_argument("--no-write", action="store_true",
                             help="report new findings without writing "
                                  "seed files")
    fuzz_parser.add_argument("--check", action="store_true",
                             help="exit nonzero if any NEW seed was found "
                                  "(CI gate: clean tree -> zero new seeds)")
    fuzz_parser.add_argument("--replay", action="store_true",
                             help="replay every checked-in seed instead "
                                  "of fuzzing")
    fuzz_parser.add_argument("--json", action="store_true",
                             help="machine-readable JSON on stdout")
    fuzz_parser.add_argument("--out", metavar="PATH",
                             help="write the fuzz report JSON here "
                                  "(with --json)")
    fuzz_parser.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BuildError, VerifyError) as exc:
        if args.func not in (cmd_run, cmd_lint, cmd_verify):
            raise
        # exit 1 means "violation found" (verify) or "findings" (lint);
        # a spec or option the command cannot use is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload sim_long --seed 0 --seconds 20 --trace 0

A run makes its job list from ``--seed``, sets up five times (seeded
spec generation plus one warm-up job) and reports the median plus the
one-off import time as ``setup_s``.  It then runs whole passes over the
job list, closed-loop, one job at a time, from this one process, until
at least ``--seconds`` have gone by.  Every job's output digest is
checked against ``frozen.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Seed 0 is the baseline; seed 7919 is held out for confirming gain
claims (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SPANS_DIR = os.path.join(HERE, "out")

WORKLOADS = ("sim_long", "corpus_sweep", "verify_dfs")
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5

#: Metric name -> unit, exactly as BENCHMARK.json declares them.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "sim_s_per_host_s": "sim_s/s",
    "peak_rss_mb": "MB",
}
#: Layers whose self time is reported as a share of job time; "bench"
#: is the benchmark's own glue inside a job (monitors, verdict dicts).
LAYERS = ("bench", "mcse", "personality", "kernel", "trace", "analyze",
          "verify")
PER_LAYER = {
    "corpus.generate_s": "s",
    "personality.lower_s": "s",
    "personality.calls": "count",
    "mcse.build_s": "s",
    "mcse.builds": "count",
    "mcse.ms_per_build": "ms",
    "kernel.run_s": "s",
    "kernel.switches": "count",
    "kernel.deltas": "count",
    "kernel.ns_per_switch": "ns",
    "rtos.dispatches": "count",
    "rtos.preemptions": "count",
    "rtos.overhead_sim_s": "sim_s",
    "smp.migrations": "count",
    "trace.records": "count",
    "trace.stats_s": "s",
    "analyze.lint_s": "s",
    "analyze.ms_per_lint": "ms",
    "analyze.diagnostics": "count",
    "verify.runs": "count",
    "verify.states": "count",
    "verify.dedup_hits": "count",
    "verify.choice_points": "count",
    "verify.dedup_hit_rate": "ratio",
    "verify.build_share": "ratio",
    "verify.canonical_s": "s",
    "verify.ms_per_run": "ms",
    "engine.procedural.sim_s_per_host_s": "sim_s/s",
    "engine.threaded.sim_s_per_host_s": "sim_s/s",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "tracing.overhead_frac": "ratio",
}


class Runner:
    """Runs whole passes over a job list and checks every job."""

    def __init__(self, jobs_mod: Any, workload: str, job_list: List[Any],
                 frozen: Dict) -> None:
        self.jobs_mod = jobs_mod
        self.workload = jobs_mod.WORKLOADS[workload]
        self.job_list = job_list
        self.frozen = frozen
        #: Per pass: the latencies of its jobs and the simulated fs.
        self.passes: List[Tuple[List[float], int]] = []
        self.attempted = 0
        self.failures: List[str] = []
        #: Per-layer counts of each pass; every pass must repeat them.
        self.pass_counts: List[Counter] = []
        #: template -> [simulated fs, host seconds in System.run].
        self.engines: Dict[str, List[float]] = {}

    def run(self, tracer: Any, seconds: float) -> None:
        started = time.perf_counter()
        while True:
            self._pass(tracer)
            if time.perf_counter() - started >= seconds:
                return

    @property
    def latencies(self) -> List[float]:
        return [latency for pass_latencies, _ in self.passes
                for latency in pass_latencies]

    def _pass(self, tracer: Any) -> None:
        counts: Counter = Counter()
        #: twin key -> digests of its §4.2 and §4.1 runs (must be one).
        twins: Dict[int, set] = {}
        latencies: List[float] = []
        sim_fs = 0
        for job in self.job_list:
            self.attempted += 1
            tracer.job = self.attempted
            started = time.perf_counter()
            try:
                raw = tracer.call("job", self.workload.run, job, tracer)
                elapsed = time.perf_counter() - started
                outcome = self.workload.outcome(raw)
            except Exception:  # a job that raises is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                self.failures.append(f"{job.label}: raised")
                continue
            del raw
            latencies.append(elapsed)
            sim_fs += outcome.sim_fs
            counts.update(outcome.counts)
            engine = self.engines.setdefault(job.template, [0, 0.0])
            engine[0] += outcome.sim_fs
            engine[1] += outcome.run_s
            if job.template in self.jobs_mod.TWIN:
                twins.setdefault(job.key, set()).add(outcome.digest)
            expected = self.frozen[job.workload][job.template][job.key]
            if outcome.digest != expected:
                self.failures.append(
                    f"{job.label}: digest {outcome.digest} != frozen "
                    f"{expected}")
        if any(len(digests) > 1 for digests in twins.values()):
            self.failures.append("§4.1 threaded and §4.2 procedural "
                                 "engines produced different outputs")
        if self.pass_counts and counts != self.pass_counts[0]:
            self.failures.append("per-layer counts changed between passes")
        self.pass_counts.append(counts)
        self.passes.append((latencies, sim_fs))


def p99(latencies: List[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(latencies)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def end_to_end(runner: Runner, setup_s: float) -> Dict[str, float]:
    """Rates and tails are medians over passes, which damps host noise."""
    passes = [(latencies, sim_fs) for latencies, sim_fs in runner.passes
              if latencies]
    if not passes:
        return {name: 0.0 for name in END_TO_END}
    return {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(
            len(latencies) / sum(latencies) for latencies, _ in passes),
        "job_p50_ms": statistics.median(runner.latencies) * 1e3,
        "job_p99_ms": statistics.median(
            p99(latencies) for latencies, _ in passes) * 1e3,
        "sim_s_per_host_s": statistics.median(
            sim_fs / 1e15 / sum(latencies) for latencies, sim_fs in passes),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(runner: Runner, spans: Dict[str, Dict[str, float]],
              generate_s: float, baseline: Runner,
              twin: Tuple[str, str]) -> Dict[str, float]:
    """Layer figures per pass over the job list (counts repeat exactly)."""
    passes = len(runner.pass_counts)
    counts = runner.pass_counts[0] if passes else Counter()

    def span_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0) / max(passes, 1)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("count", 0)) // max(passes, 1)

    builds, lints = calls("mcse.build"), calls("analyze.lint")
    verify_s = span_s("verify.explore") + span_s("verify.replay")
    build_in_verify = (spans.get("mcse.build", {}).get("in_verify_s", 0.0)
                       / max(passes, 1))
    metrics: Dict[str, float] = {
        "corpus.generate_s": generate_s,
        "personality.lower_s": span_s("personality.lower"),
        "personality.calls": calls("personality.lower"),
        "mcse.build_s": span_s("mcse.build"),
        "mcse.builds": builds,
        "mcse.ms_per_build": _ratio(span_s("mcse.build") * 1e3, builds),
        "kernel.run_s": span_s("kernel.run"),
        "kernel.switches": counts["kernel.switches"],
        "kernel.deltas": counts["kernel.deltas"],
        "kernel.ns_per_switch": _ratio(span_s("kernel.run") * 1e9,
                                       counts["kernel.switches"]),
        "rtos.dispatches": counts["rtos.dispatches"],
        "rtos.preemptions": counts["rtos.preemptions"],
        "rtos.overhead_sim_s": counts["rtos.overhead_fs"] / 1e15,
        "smp.migrations": counts["smp.migrations"],
        "trace.records": counts["trace.records"],
        "trace.stats_s": span_s("trace.stats"),
        "analyze.lint_s": span_s("analyze.lint"),
        "analyze.ms_per_lint": _ratio(span_s("analyze.lint") * 1e3, lints),
        "analyze.diagnostics": counts["analyze.diagnostics"],
        "verify.runs": counts["verify.runs"],
        "verify.states": counts["verify.states"],
        "verify.dedup_hits": counts["verify.dedup_hits"],
        "verify.choice_points": counts["verify.choice_points"],
        "verify.dedup_hit_rate": _ratio(
            counts["verify.dedup_hits"],
            counts["verify.states"] + counts["verify.dedup_hits"]),
        "verify.build_share": _ratio(build_in_verify, verify_s),
        "verify.canonical_s": span_s("verify.canonical"),
        "verify.ms_per_run": _ratio(verify_s * 1e3, counts["verify.builds"]),
    }
    for engine, template in zip(("procedural", "threaded"), twin):
        sim_fs, run_s = runner.engines.get(template, (0, 0.0))
        metrics[f"engine.{engine}.sim_s_per_host_s"] = _ratio(sim_fs / 1e15,
                                                              run_s)
    job_s = spans.get("job", {}).get("total_s", 0.0)
    for layer in LAYERS:
        self_s = sum(row["self_s"] for name, row in spans.items()
                     if (name == "job" if layer == "bench"
                         else name.startswith(layer + ".")))
        metrics[f"{layer}.self_share"] = _ratio(self_s, job_s)
    traced_pass_s = sum(runner.latencies) / max(passes, 1)
    metrics["tracing.overhead_frac"] = _ratio(
        traced_pass_s, sum(baseline.latencies)) - 1.0
    return metrics


@contextlib.contextmanager
def instrumented(tracer: Any) -> Iterator[None]:
    """Time the two module-level calls the job bodies cannot wrap.

    ``build_system`` looks ``lower_spec`` up on ``repro.personality`` at
    call time, and ``run_once`` looks ``canonical_state`` up on
    ``repro.verify.harness``; swapping those attributes for the traced
    run times the real calls without touching ``src/``.
    """
    import repro.personality as personality
    import repro.verify.harness as harness

    saved = personality.lower_spec, harness.canonical_state
    personality.lower_spec = tracer.wrap("personality.lower", saved[0])
    harness.canonical_state = tracer.wrap("verify.canonical", saved[1])
    try:
        yield
    finally:
        personality.lower_spec, harness.canonical_state = saved


def measure(jobs_mod: Any, workload: str, seed: int, seconds: float,
            trace: bool, import_s: float = 0.0,
            limit: Optional[int] = None) -> Tuple[Dict, Runner]:
    """One benchmark run; returns the result object and its runner.

    ``limit`` keeps only the first jobs of the list (self-tests).
    """
    from spans import NullTracer, Tracer

    work = jobs_mod.WORKLOADS[workload]
    frozen = jobs_mod.load_frozen()
    setup_times, generate_times = [], []
    for _ in range(SETUP_REPEATS):
        setup_tracer = Tracer() if trace else NullTracer()
        started = time.perf_counter()
        job_list = work.make_jobs(seed, frozen, setup_tracer)
        work.run(work.warmup(job_list), NullTracer())
        setup_times.append(time.perf_counter() - started)
        if trace:
            generate_times.append(setup_tracer.summary().get(
                "corpus.generate", {}).get("total_s", 0.0))
    job_list = job_list[:limit] if limit else job_list
    setup_s = import_s + statistics.median(setup_times)

    runner = Runner(jobs_mod, workload, job_list, frozen)
    if trace:
        baseline = Runner(jobs_mod, workload, job_list, frozen)
        baseline.run(NullTracer(), 0)
        tracer = Tracer()
        with instrumented(tracer):
            runner.run(tracer, seconds)
        tracer.write(os.path.join(SPANS_DIR, f"{workload}.spans.jsonl"))
        metrics = per_layer(runner, tracer.summary(),
                            statistics.median(generate_times), baseline,
                            jobs_mod.TWIN)
        runner.attempted += baseline.attempted
        runner.failures += baseline.failures
    else:
        runner.run(NullTracer(), seconds)
        metrics = end_to_end(runner, setup_s)
    failed = min(len(runner.failures), runner.attempted)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, runner


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no repository sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import jobs
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    result, runner = measure(jobs, args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    count = len(runner.job_list)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runner.passes)} passes of {count} jobs, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    if not args.trace:
        beyond = count - math.ceil(0.99 * count)
        print(f"job_p99_ms: median over passes of a per-pass p99 with "
              f"{beyond} of {count} samples beyond it")
    for name, entry in result["metrics"].items():
        print(f"  {name:36} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

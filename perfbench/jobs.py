"""The benchmark's workloads: seeded job lists and the job bodies.

A job is a short sequence of calls into the repository's public
functions.  Each call goes through ``tracer.call(span, fn, ...)``: the
untraced run passes a :class:`spans.NullTracer`, which calls straight
through, and the traced run a :class:`spans.Tracer`, which records one
span per call.  README.md maps every span to its layer and metric.

Inputs come only from the seed.  Every job template draws its key (a
generator seed) from a fixed pool, and ``frozen.json`` holds the
reference output digest of each pool entry, computed by ``freeze.py``.
Entries frozen as ``null`` are never drawn.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import random
import time
from typing import Any, Callable, Dict, List, Optional

from repro.analyze import analyze_system
from repro.corpus import GENERATORS, generate, verdict_digest
from repro.corpus.pipeline import differential_check, \
    static_dynamic_accounting
from repro.errors import ModelError, SimulationError
from repro.kernel.simulator import Simulator
from repro.kernel.time import MS
from repro.mcse.builder import build_system
from repro.smp.demo import smp_miss_spec
from repro.trace.recorder import TraceRecorder
from repro.trace.statistics import task_stats_from_records
from repro.verify import replay_model, verify_model
from repro.verify.properties import RunMonitors
from repro.verify.witness import declared_blocking_bound
from repro.workloads.fig6 import fig6_crossed_mutex_spec

FROZEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "frozen.json")


@dataclasses.dataclass
class Job:
    """One unit of closed-loop work: a spec and how far to run it."""

    workload: str
    template: str
    key: int
    spec: Dict[str, Any]
    #: Absolute simulated-time bound; ``None`` runs to quiescence.
    horizon: Optional[int]

    @property
    def label(self) -> str:
        return f"{self.template}#{self.key}"


@dataclasses.dataclass
class Outcome:
    """What a finished job is checked and counted by."""

    #: Output digest, compared with the frozen reference.
    digest: str
    #: Simulated time the job covered, in femtoseconds.
    sim_fs: int
    #: Deterministic per-layer counts.
    counts: Dict[str, int]
    #: Host seconds spent inside ``System.run``.
    run_s: float = 0.0


def short_digest(payload: Any) -> str:
    """First 16 hex digits of SHA-256 over ``payload`` as sorted JSON."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_frozen() -> Dict[str, Dict[str, List[Optional[str]]]]:
    with open(FROZEN_PATH) as handle:
        return json.load(handle)


def drawable(references: List[Optional[str]]) -> List[int]:
    """Pool keys that have a frozen reference."""
    return [key for key, ref in enumerate(references) if ref is not None]


def system_counts(system: Any) -> Dict[str, int]:
    """Kernel, RTOS and SMP counters of a system that has run."""
    sim = system.sim
    cpus = list(system.processors.values())
    return {
        "kernel.switches": sim.process_switch_count,
        "kernel.deltas": sim.delta_count,
        "rtos.dispatches": sum(cpu.dispatch_count for cpu in cpus),
        "rtos.preemptions": sum(cpu.preemption_count for cpu in cpus),
        "rtos.overhead_fs": sum(cpu.overhead_time for cpu in cpus),
        "smp.migrations": sum(domain.migration_total
                              for domain in system.domains.values()),
    }


# ---------------------------------------------------------------------------
# sim_long: a few specs, each built once and run far, like `run --stats`
# ---------------------------------------------------------------------------
#: template -> (generator, params, horizon).  Period bands are narrow and
#: counts large, so the work per job barely moves with the seed while
#: the seed still redraws utilizations, costs and periods.  Horizons
#: size every job to roughly the same host time.
SIM_LONG: Dict[str, tuple] = {
    "periodic12": ("periodic", {
        "n": 12, "utilization": 0.7, "period_min_us": 400,
        "period_max_us": 800, "overhead_us": 2}, 100 * MS),
    "periodic12_threaded": ("periodic", {
        "n": 12, "utilization": 0.7, "period_min_us": 400,
        "period_max_us": 800, "overhead_us": 2, "engine": "threaded"},
        100 * MS),
    "smp4": ("smp", {
        "cores": 4, "n": 12, "utilization": 2.6, "migration_cost_us": 5,
        "period_min_us": 800, "period_max_us": 1200}, 250 * MS),
    "contention_pcp": ("contention", {
        "tasks": 6, "resources": 3, "periodic": True,
        "protocol": "ceiling", "period_min_us": 900,
        "period_max_us": 1100}, 350 * MS),
    "freertos": ("freertos", {
        "producers": 3, "iterations": 170, "use_notify": True,
        "period_min_us": 900, "period_max_us": 1100}, None),
    "bursty": ("bursty", {
        "bursts": 800, "burst_len_max": 6, "gap_min_us": 200,
        "gap_max_us": 1000, "background_tasks": 2}, 500 * MS),
}
#: The §4.2 procedural set and its §4.1 threaded twin share their keys,
#: and their outputs must be identical.
TWIN = ("periodic12", "periodic12_threaded")
SIM_POOL = 24
#: Keys per template in one pass: three draws average out the seed.
SIM_KEYS_PER_PASS = 3


def sim_spec(template: str, key: int, tracer: Any) -> Dict:
    kind, params, _ = SIM_LONG[template]
    return tracer.call("corpus.generate", generate, kind, key, dict(params))


def sim_long_jobs(seed: int, frozen: Dict, tracer: Any) -> List[Job]:
    rng = random.Random(f"sim_long:{seed}")
    refs = frozen["sim_long"]
    keys = {template: rng.sample(drawable(refs[template]), SIM_KEYS_PER_PASS)
            for template in SIM_LONG if template != TWIN[1]}
    keys[TWIN[1]] = keys[TWIN[0]]
    return [Job("sim_long", template, key,
                sim_spec(template, key, tracer), horizon)
            for index in range(SIM_KEYS_PER_PASS)
            for template, (_, _, horizon) in SIM_LONG.items()
            for key in (keys[template][index],)]


def run_sim(job: Job, tracer: Any) -> tuple:
    """``pyrtos-sc run --stats``: build, run with a recorder, task stats."""
    system = tracer.call("mcse.build", build_system, job.spec)
    recorder = TraceRecorder(system.sim)
    started = time.perf_counter()
    end = tracer.call("kernel.run", system.run, until=job.horizon)
    run_s = time.perf_counter() - started
    stats = tracer.call("trace.stats", task_stats_from_records, recorder, end)
    return system, recorder, stats, run_s


def trace_digest(records: List[Any]) -> str:
    """SHA-256 over every record, in a fixed order inside each instant.

    Record order inside one simulated instant is not observable (the
    two §4 engines interleave same-instant records differently), so
    each instant's records are sorted by their text.
    """
    digest = hashlib.sha256()
    for _, group in itertools.groupby(records, key=lambda r: r.time):
        for text in sorted(map(repr, group)):
            digest.update(text.encode())
            digest.update(b"\n")
    return digest.hexdigest()


def sim_outcome(raw: tuple) -> Outcome:
    system, recorder, stats, run_s = raw
    records = recorder.records
    counts = system_counts(system)
    counts["trace.records"] = len(records)
    simulated = {
        "trace": trace_digest(records),
        "end": system.now,
        "records": len(records),
        "tasks": [[s.name, s.processor, s.total, s.running, s.ready,
                   s.preempted, s.waiting, s.waiting_resource]
                  for s in stats],
        "rtos": [counts["rtos.dispatches"], counts["rtos.preemptions"],
                 counts["rtos.overhead_fs"], counts["smp.migrations"]],
    }
    return Outcome(short_digest(simulated), system.now, counts, run_s)


# ---------------------------------------------------------------------------
# corpus_sweep: ~1000 small specs, lint + short monitored run each
# ---------------------------------------------------------------------------
CORPUS_POOL = 200
CORPUS_PER_KIND = 112
CORPUS_HORIZON = 20 * MS


def corpus_spec(kind: str, key: int, tracer: Any) -> Dict:
    """The generator's own fuzz parameters, seeded by the pool key."""
    params = GENERATORS[kind].fuzz(random.Random(f"perfbench:{kind}:{key}"))
    return tracer.call("corpus.generate", generate, kind, key, params)


def corpus_jobs(seed: int, frozen: Dict, tracer: Any) -> List[Job]:
    rng = random.Random(f"corpus_sweep:{seed}")
    kinds = sorted(GENERATORS)
    keys = {kind: rng.sample(drawable(frozen["corpus_sweep"][kind]),
                             CORPUS_PER_KIND)
            for kind in kinds}
    jobs = []
    for index in range(CORPUS_PER_KIND):
        rng.shuffle(kinds)
        for kind in kinds:
            key = keys[kind][index]
            jobs.append(Job("corpus_sweep", kind, key,
                            corpus_spec(kind, key, tracer), CORPUS_HORIZON))
    return jobs


def run_corpus(job: Job, tracer: Any) -> tuple:
    """``run_pipeline`` without its verify stage, as separate calls."""
    spec = job.spec
    system = tracer.call("mcse.build", build_system, spec,
                         sim=Simulator("corpus-lint"))
    report = tracer.call("analyze.lint", analyze_system, system)
    lint = {
        "errors": sorted({d.rule for d in report.diagnostics
                          if d.severity.name == "ERROR"}),
        "warnings": sorted({d.rule for d in report.diagnostics
                            if d.severity.name == "WARNING"}),
        "suppressed": sorted({d.rule for d in report.suppressed}),
    }
    system = tracer.call("mcse.build", build_system, spec,
                         sim=Simulator("corpus-sim"))
    monitors = RunMonitors(system,
                           inversion_bound=declared_blocking_bound(spec))
    error: Optional[BaseException] = None
    try:
        tracer.call("kernel.run", system.run, until=job.horizon)
    except SimulationError as exc:
        if not isinstance(exc.__cause__, ModelError):
            raise
        error = exc.__cause__  # mutex misuse is an observation
    except ModelError as exc:
        error = exc
    monitors.finish(error)
    monitors.detach()
    simulate = {
        "status": "ok",
        "end_time": system.now,
        "violations": sorted({v.property_id for v in monitors.violations}),
    }
    verdict: Dict[str, Any] = {
        "lint": lint,
        "simulate": simulate,
        "differential": differential_check(spec, lint, simulate),
    }
    verdict["static_dynamic"] = static_dynamic_accounting(verdict)
    return system, report, verdict


def corpus_outcome(raw: tuple) -> Outcome:
    system, report, verdict = raw
    counts = system_counts(system)
    counts["analyze.diagnostics"] = len(report.diagnostics)
    return Outcome(verdict_digest(verdict)[:16], system.now, counts)


# ---------------------------------------------------------------------------
# verify_dfs: exhaustive DFS problems
# ---------------------------------------------------------------------------
def interval6_spec() -> Dict:
    """Six equal-priority tasks with two ``5us..10us`` executions each.

    Every dispatch is a tie and crossing sums (5+10 == 10+5) make
    distinct prefixes converge, so the run finishes ``verified`` after
    about 3k runs with canonical-state dedup doing most of the pruning.
    """
    return {
        "name": "interval6",
        "relations": [],
        "processors": [{"name": "cpu"}],
        "functions": [
            {"name": f"t{index}", "priority": 1, "processor": "cpu",
             "script": [["execute", "5us..10us"], ["execute", "5us..10us"]]}
            for index in range(6)
        ],
    }


CONTENTION_PARAMS = {"tasks": 3, "resources": 2, "locks_per_task": 2,
                     "intervals": True, "iterations": 2, "processors": 2}
#: The seeded violation: (spec factory, horizon) per key.
VIOLATIONS = ((fig6_crossed_mutex_spec, 1 * MS), (smp_miss_spec, 20 * MS))
CONTENTION_POOL = 96
CONTENTION_PER_PASS = 4


def verify_job(template: str, key: int, tracer: Any) -> Job:
    if template == "violation":
        make, horizon = VIOLATIONS[key]
        return Job("verify_dfs", template, key, make(), horizon)
    if template == "contention":
        spec = tracer.call("corpus.generate", generate, "contention", key,
                           dict(CONTENTION_PARAMS))
        return Job("verify_dfs", template, key, spec, None)
    return Job("verify_dfs", template, key, interval6_spec(), None)


def verify_jobs(seed: int, frozen: Dict, tracer: Any) -> List[Job]:
    rng = random.Random(f"verify_dfs:{seed}")
    refs = frozen["verify_dfs"]
    # both violations every pass: their explored simulated time differs
    # twentyfold, so drawing one would swing sim_s_per_host_s with the seed
    jobs = [verify_job("violation", key, tracer)
            for key in drawable(refs["violation"])]
    for key in rng.sample(drawable(refs["contention"]), CONTENTION_PER_PASS):
        jobs.append(verify_job("contention", key, tracer))
    jobs.append(verify_job("interval6", 0, tracer))
    return jobs


class TimedFactory:
    """The model factory handed to the verifier: one span per build.

    It also adds up the simulated time every finished run reached.
    """

    def __init__(self, spec: Dict, tracer: Any) -> None:
        self.spec = spec
        self.tracer = tracer
        self.builds = 0
        self.sim_fs = 0
        self._last: Any = None

    def __call__(self, sim: Simulator) -> Any:
        self.settle()
        self.builds += 1
        self._last = self.tracer.call("mcse.build", build_system, self.spec,
                                      sim=sim)
        return self._last

    def settle(self) -> None:
        if self._last is not None:
            self.sim_fs += self._last.sim.now
            self._last = None


def run_verify(job: Job, tracer: Any) -> tuple:
    """``pyrtos-sc verify --replay``: explore, then replay the witness."""
    factory = TimedFactory(job.spec, tracer)
    result = tracer.call("verify.explore", verify_model, factory,
                         horizon=job.horizon)
    replays = None
    counterexample = result.counterexample
    if counterexample is not None:
        _, _, outcome = tracer.call("verify.replay", replay_model, factory,
                                    counterexample.choices,
                                    horizon=job.horizon)
        replays = counterexample.property_id in {
            v.property_id for v in outcome.violations}
    factory.settle()
    return result, replays, factory


def verify_digest(result: Any, replays: Optional[bool]) -> str:
    """Verdict, violated properties, witness property and its replay.

    Run and state counts stay out, so a sound reduction of the explored
    space leaves every digest unchanged.
    """
    counterexample = result.counterexample
    return short_digest({
        "verdict": result.verdict(),
        "properties": sorted({v.property_id for v in result.violations}),
        "witness": (counterexample.property_id
                    if counterexample is not None else None),
        "replays": replays,
    })


def verify_outcome(raw: tuple) -> Outcome:
    result, replays, factory = raw
    stats = result.stats
    counts = {
        "verify.runs": stats.runs,
        "verify.states": stats.states,
        "verify.dedup_hits": stats.dedup_hits,
        "verify.choice_points": stats.choice_points,
        "verify.builds": factory.builds,
    }
    return Outcome(verify_digest(result, replays), factory.sim_fs, counts)


# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    make_jobs: Callable[[int, Dict, Any], List[Job]]
    run: Callable[[Job, Any], tuple]
    outcome: Callable[[tuple], Outcome]
    #: The set-up's warm-up job, made from the job list.
    warmup: Callable[[List[Job]], Job]


WORKLOADS: Dict[str, Workload] = {
    "sim_long": Workload(
        sim_long_jobs, run_sim, sim_outcome,
        lambda jobs: dataclasses.replace(jobs[0], horizon=10 * MS)),
    "corpus_sweep": Workload(
        corpus_jobs, run_corpus, corpus_outcome, lambda jobs: jobs[0]),
    "verify_dfs": Workload(
        verify_jobs, run_verify, verify_outcome, lambda jobs: jobs[0]),
}

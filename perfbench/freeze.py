"""Rebuild ``frozen.json``: the reference output of every pool entry.

    python3 perfbench/freeze.py

References come from the library's own entry points where one exists --
``run_pipeline`` for corpus jobs, ``verify_spec``/``replay_spec`` for
verifier jobs -- so the benchmark's job bodies are checked against an
independent path.  Rebuild only after a change that is meant to alter
simulated behaviour or verdicts, and say so in that change.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402
from repro.corpus import GENERATORS, PipelineOptions, run_pipeline, \
    verdict_digest  # noqa: E402
from repro.verify import replay_spec, verify_spec  # noqa: E402
from spans import NullTracer  # noqa: E402

#: Contention problems whose exploration size lies outside this band
#: stay out of the pool, so every draw costs about the same.
CONTENTION_RUNS = (70, 90)
#: Likewise, sim_long keys whose kernel switch count, and contention
#: problems whose explored simulated time, lie further than this share
#: from their pool's median stay out.
WORK_BAND = 0.1


def corpus_reference(kind: str, key: int) -> Optional[str]:
    spec = jobs.corpus_spec(kind, key, NullTracer())
    verdict = run_pipeline(spec, PipelineOptions(
        horizon=jobs.CORPUS_HORIZON, verify=False))
    if "crash" in verdict:
        return None
    return verdict_digest(verdict)[:16]


def sim_references() -> Dict[str, List[Optional[str]]]:
    """Digests of every sim_long pool; keys of atypical work stay out.

    The threaded twin keeps exactly the procedural set's keys.
    """
    outcomes = {}
    for template, (_, _, horizon) in jobs.SIM_LONG.items():
        outcomes[template] = [
            jobs.sim_outcome(jobs.run_sim(jobs.Job(
                "sim_long", template, key,
                jobs.sim_spec(template, key, NullTracer()), horizon),
                NullTracer()))
            for key in range(jobs.SIM_POOL)]
    refs = {}
    for template, pool in outcomes.items():
        band = outcomes[jobs.TWIN[0] if template in jobs.TWIN else template]
        switches = [outcome.counts["kernel.switches"] for outcome in band]
        middle = statistics.median(switches)
        refs[template] = [
            outcome.digest if abs(count / middle - 1) <= WORK_BAND
            else None
            for outcome, count in zip(pool, switches)]
    return refs


def contention_sim_fs(key: int) -> int:
    """Simulated time one contention problem's exploration covers."""
    job = jobs.verify_job("contention", key, NullTracer())
    return jobs.verify_outcome(jobs.run_verify(job, NullTracer())).sim_fs


def verify_reference(template: str, key: int,
                     sim_median: float = 0.0) -> Optional[str]:
    job = jobs.verify_job(template, key, NullTracer())
    result = verify_spec(job.spec, horizon=job.horizon)
    if template == "contention" and not (
            CONTENTION_RUNS[0] <= result.stats.runs <= CONTENTION_RUNS[1]
            and abs(contention_sim_fs(key) / sim_median - 1)
            <= WORK_BAND):
        return None
    replays = None
    counterexample = result.counterexample
    if counterexample is not None:
        _, _, outcome = replay_spec(job.spec, counterexample.choices,
                                    horizon=job.horizon)
        replays = counterexample.property_id in {
            v.property_id for v in outcome.violations}
    return jobs.verify_digest(result, replays)


def main() -> int:
    sim_median = statistics.median(
        contention_sim_fs(key) for key in range(jobs.CONTENTION_POOL))
    frozen: Dict[str, Dict[str, List[Optional[str]]]] = {
        "corpus_sweep": {
            kind: [corpus_reference(kind, key)
                   for key in range(jobs.CORPUS_POOL)]
            for kind in sorted(GENERATORS)
        },
        "sim_long": sim_references(),
        "verify_dfs": {
            "violation": [verify_reference("violation", key)
                          for key in range(len(jobs.VIOLATIONS))],
            "contention": [verify_reference("contention", key, sim_median)
                           for key in range(jobs.CONTENTION_POOL)],
            "interval6": [verify_reference("interval6", 0)],
        },
    }
    procedural, threaded = (frozen["sim_long"][name] for name in jobs.TWIN)
    if procedural != threaded:
        print("freeze.py: the threaded and procedural engines disagree",
              file=sys.stderr)
        return 1
    with open(jobs.FROZEN_PATH, "w") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, templates in frozen.items():
        for template, refs in templates.items():
            kept = sum(ref is not None for ref in refs)
            print(f"{workload:13} {template:20} {kept}/{len(refs)} in pool")
    return 0


if __name__ == "__main__":
    sys.exit(main())

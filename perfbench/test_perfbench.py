"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import jobs  # noqa: E402
import run  # noqa: E402
from repro.corpus import spec_digest  # noqa: E402
from spans import NullTracer  # noqa: E402

#: Jobs kept per workload in the tiny runs: the twin engine pair, the
#: two seeded violations, two rounds of the nine generators.
TINY = {"sim_long": 2, "verify_dfs": 2, "corpus_sweep": 18}


def _spec_digests(workload, seed):
    make_jobs = jobs.WORKLOADS[workload].make_jobs
    return [spec_digest(job.spec)
            for job in make_jobs(seed, jobs.load_frozen(), NullTracer())]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_alone_determines_the_specs(workload):
    baseline = _spec_digests(workload, run.DEFAULT_SEED)
    assert baseline == _spec_digests(workload, run.DEFAULT_SEED)
    assert baseline != _spec_digests(workload, run.HELD_OUT_SEED)


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        run.PER_LAYER


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_has_no_failures(workload, trace):
    result, runner = run.measure(jobs, workload, run.DEFAULT_SEED, 0, trace,
                                 limit=TINY[workload])
    assert result["failed"] == 0, runner.failures
    assert result["correct"]
    assert result["attempted"] >= TINY[workload]
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


def test_seeded_violations_are_found_and_replayed():
    for key in range(len(jobs.VIOLATIONS)):
        job = jobs.verify_job("violation", key, NullTracer())
        result, replays, _ = jobs.run_verify(job, NullTracer())
        assert result.verdict() == "violated", job.label
        assert replays is True, job.label

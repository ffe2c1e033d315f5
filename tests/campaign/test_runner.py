"""Tests for the campaign runner: parallelism, retries, timeouts."""

import multiprocessing.pool
import time

import pytest

from repro.campaign import ExperimentSpec, ProgressReporter, Runner
from repro.errors import CampaignError

#: In-worker retry bookkeeping (worker-process-local; the in-worker
#: retry loop sees the same dict across attempts of one run).
FLAKY_ATTEMPTS = {}


def square_experiment(params):
    seed = params["seed"]
    return {"sq": seed * seed, "seed": seed}


def failing_experiment(params):
    seed = params["seed"]
    if seed % 2 == 1:
        raise ValueError(f"odd seed {seed}")
    return {"sq": seed * seed}


def flaky_experiment(params):
    seed = params["seed"]
    attempt = FLAKY_ATTEMPTS.get(seed, 0) + 1
    FLAKY_ATTEMPTS[seed] = attempt
    if attempt == 1:
        raise RuntimeError("first attempt always fails")
    return {"attempt": attempt}


def sleeping_experiment(params):
    seed = params["seed"]
    if seed == 1:
        time.sleep(10)
    return {"seed": seed}


def _seeds(runs):
    return [{"seed": i} for i in range(runs)]


class TestDeterminism:
    def test_parallel_matches_serial(self):
        spec = ExperimentSpec("square_experiment", square_experiment)
        serial = Runner(workers=1).execute(spec, _seeds(8))
        parallel = Runner(workers=2).execute(spec, _seeds(8))
        assert [r.index for r in parallel.results] == list(range(8))
        assert [r.metrics for r in parallel.results] == \
            [r.metrics for r in serial.results]

    def test_chunked_dispatch_matches(self, monkeypatch):
        chunks = []
        imap_unordered = multiprocessing.pool.Pool.imap_unordered

        def spy(pool, func, iterable, chunksize=1):
            chunks.append(chunksize)
            return imap_unordered(pool, func, iterable, chunksize)

        monkeypatch.setattr(multiprocessing.pool.Pool, "imap_unordered",
                            spy)
        spec = ExperimentSpec("square_experiment", square_experiment)
        # 24 runs over 2 workers: ~4 chunks per worker -> 3 runs a chunk
        chunked = Runner(workers=2).execute(spec, _seeds(24))
        assert chunks == [3]
        assert [r.metrics["sq"] for r in chunked.results] == \
            [i * i for i in range(24)]

    def test_more_workers_than_runs(self):
        spec = ExperimentSpec("square_experiment", square_experiment)
        outcome = Runner(workers=4).execute(spec, _seeds(2))
        assert outcome.runs == 2 and outcome.ok


class TestFailureHandling:
    def test_failures_are_records_not_aborts(self):
        spec = ExperimentSpec("failing_experiment", failing_experiment)
        outcome = Runner(workers=2).execute(spec, _seeds(6))
        assert [r.index for r in outcome.results] == [0, 2, 4]
        assert [f.index for f in outcome.failures] == [1, 3, 5]
        failure = outcome.failures[0]
        assert failure.error_type == "ValueError"
        assert "odd seed 1" in failure.message
        assert failure.params == {"seed": 1}
        assert not failure.timed_out

    def test_raise_on_failure_summarises(self):
        spec = ExperimentSpec("failing_experiment", failing_experiment)
        outcome = Runner().execute(spec, _seeds(4))
        with pytest.raises(CampaignError, match="odd seed 1"):
            outcome.raise_on_failure()

    def test_retry_recovers_flaky_run(self):
        FLAKY_ATTEMPTS.clear()
        spec = ExperimentSpec("flaky_experiment", flaky_experiment)
        outcome = Runner(retries=1).execute(spec, _seeds(3))
        assert outcome.ok
        assert all(r.attempts == 2 for r in outcome.results)

    def test_retries_exhausted_keeps_failure(self):
        spec = ExperimentSpec("failing_experiment", failing_experiment)
        outcome = Runner(retries=2).execute(spec, _seeds(2))
        assert [f.attempts for f in outcome.failures] == [3]

    def test_timeout_produces_structured_failure(self):
        spec = ExperimentSpec("sleeping_experiment", sleeping_experiment)
        outcome = Runner(workers=2, timeout=0.3).execute(
            spec, _seeds(3)
        )
        assert [r.index for r in outcome.results] == [0, 2]
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.index == 1
        assert failure.timed_out
        assert failure.error_type == "RunTimeout"


class TestValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(CampaignError):
            Runner(workers=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(CampaignError):
            Runner(retries=-1)

    def test_unpicklable_spec_gets_clear_error(self):
        spec = ExperimentSpec("lam", lambda params: {"v": params["seed"]})
        with pytest.raises(CampaignError, match="module-level"):
            Runner(workers=2).execute(spec, [{"seed": 0}])

    def test_unpicklable_ok_in_serial_mode(self):
        spec = ExperimentSpec("lam", lambda params: {"v": params["seed"]})
        outcome = Runner(workers=1).execute(
            spec, [{"seed": 0}]
        )
        assert outcome.results[0].metrics == {"v": 0}


class TestAccounting:
    def test_summary_shape(self):
        spec = ExperimentSpec("square_experiment", square_experiment)
        outcome = Runner(workers=2).execute(spec, _seeds(4))
        summary = outcome.summary()
        assert summary["runs"] == 4
        assert summary["ok"] == 4
        assert summary["failed"] == 0
        assert summary["workers"] == 2
        assert summary["wall_s"] > 0
        assert summary["runs_per_s"] > 0

    def test_progress_reporter_counts(self):
        class Sink:
            def __init__(self):
                self.lines = []

            def write(self, text):
                self.lines.append(text)

            def flush(self):
                pass

        sink = Sink()
        reporter = ProgressReporter(4, label="t", stream=sink,
                                    min_interval=0.0)
        spec = ExperimentSpec("square_experiment", square_experiment)
        Runner(progress=reporter).execute(spec, _seeds(4))
        assert reporter.done == 4 and reporter.ok == 4
        final = "".join(sink.lines)
        assert "4/4 runs" in final
        assert "runs/s" in final

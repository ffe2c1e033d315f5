"""Tests for the content-addressed on-disk result cache."""

import json
import os

from repro.campaign import ExperimentSpec, ResultCache, Runner, run_key

#: Executions per seed, to prove cache hits skip the experiment.
CALLS = {}


def counting_experiment(params):
    seed = params["seed"]
    CALLS[seed] = CALLS.get(seed, 0) + 1
    return {"value": seed * 10}


def edited_experiment(params):
    seed = params["seed"]
    return {"value": seed * 10 + 1}


def _run(spec, runs, cache, **kwargs):
    runner = Runner(cache=cache, **kwargs)
    return runner.execute(spec, [{"seed": i} for i in range(runs)])


class TestCacheHits:
    def test_second_run_is_all_hits(self, tmp_path):
        CALLS.clear()
        spec = ExperimentSpec("counting_experiment", counting_experiment)
        cache = ResultCache(str(tmp_path))
        first = _run(spec, 4, cache)
        assert first.cache_hits == 0 and first.cache_misses == 4
        assert CALLS == {0: 1, 1: 1, 2: 1, 3: 1}

        second = _run(spec, 4, cache)
        assert second.cache_hits == 4 and second.cache_misses == 0
        assert CALLS == {0: 1, 1: 1, 2: 1, 3: 1}  # nothing re-ran
        assert [r.metrics for r in second.results] == \
            [r.metrics for r in first.results]
        assert all(r.cached for r in second.results)

    def test_persists_across_cache_instances(self, tmp_path):
        CALLS.clear()
        spec = ExperimentSpec("counting_experiment", counting_experiment)
        _run(spec, 3, ResultCache(str(tmp_path)))
        outcome = _run(spec, 3, ResultCache(str(tmp_path)))
        assert outcome.cache_hits == 3
        assert sum(CALLS.values()) == 3

    def test_grid_extension_only_runs_new_cells(self, tmp_path):
        CALLS.clear()
        spec = ExperimentSpec("counting_experiment", counting_experiment)
        cache = ResultCache(str(tmp_path))
        _run(spec, 3, cache)
        outcome = _run(spec, 5, cache)
        assert outcome.cache_hits == 3 and outcome.cache_misses == 2
        assert CALLS == {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}


class TestInvalidation:
    def test_code_change_starts_fresh_file(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        a = ExperimentSpec("same", counting_experiment)
        b = ExperimentSpec("same", edited_experiment)
        _run(a, 2, cache)
        outcome = _run(b, 2, cache)
        assert outcome.cache_misses == 2  # no stale metrics served
        assert cache.path_for(a) != cache.path_for(b)

    def test_key_depends_on_params_not_dict_order(self):
        assert run_key("fp", {"a": 1, "b": 2}) == \
            run_key("fp", {"b": 2, "a": 1})
        assert run_key("fp", {"a": 1}) != run_key("fp", {"a": 2})
        assert run_key("fp", {"a": 1}) != run_key("fp2", {"a": 1})


class TestRobustness:
    def test_torn_final_line_is_skipped(self, tmp_path):
        spec = ExperimentSpec("counting_experiment", counting_experiment)
        cache = ResultCache(str(tmp_path))
        _run(spec, 2, cache)
        path = cache.path_for(spec)
        with open(path, "a") as handle:
            handle.write('{"key": "partial-rec')  # simulated crash
        fresh = ResultCache(str(tmp_path))
        outcome = _run(spec, 2, fresh)
        assert outcome.cache_hits == 2

    def test_failures_are_never_cached(self, tmp_path):
        spec = ExperimentSpec("_always_fails", _always_fails)
        cache = ResultCache(str(tmp_path))
        outcome = _run(spec, 2, cache)
        assert len(outcome.failures) == 2
        path = cache.path_for(spec)
        assert not os.path.exists(path) or not open(path).read().strip()

    def test_records_preserve_metric_order(self, tmp_path):
        spec = ExperimentSpec("_multi_metric", _multi_metric)
        cache = ResultCache(str(tmp_path))
        _run(spec, 1, cache)
        line = open(cache.path_for(spec)).readline()
        metrics = json.loads(line)["metrics"]
        assert list(metrics) == ["zebra", "alpha", "mid"]


def _always_fails(params):
    raise RuntimeError("nope")


def _multi_metric(params):
    return {"zebra": 1, "alpha": 2, "mid": 3}


def _store_batch(args):
    """Worker: append a disjoint batch of entries to the shared cache."""
    root, offset, count = args
    spec = ExperimentSpec("shared", counting_experiment)
    cache = ResultCache(root)
    for seed in range(offset, offset + count):
        cache.store(spec, {"seed": seed}, {"value": seed * 10})
    return count


class TestMultiprocessWriters:
    """Concurrent writer processes append to the same JSONL file.

    The cache opens files in append mode and writes one short line per
    store; with several processes interleaving appends, a fresh cache
    must still serve every entry (and, per the torn-line tests above,
    skip anything a crash left half-written rather than poisoning the
    file).
    """

    def test_concurrent_stores_all_survive(self, tmp_path):
        import concurrent.futures

        batches = [(str(tmp_path), offset, 25)
                   for offset in range(0, 100, 25)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=4) as pool:
            written = sum(pool.map(_store_batch, batches))
        assert written == 100

        spec = ExperimentSpec("shared", counting_experiment)
        fresh = ResultCache(str(tmp_path))
        for seed in range(100):
            record = fresh.lookup(spec, {"seed": seed})
            assert record is not None, f"entry for seed {seed} lost"
            assert record["metrics"] == {"value": seed * 10}
        assert fresh.hits == 100 and fresh.misses == 0

    def test_interleaved_writers_then_torn_tail(self, tmp_path):
        import concurrent.futures

        batches = [(str(tmp_path), offset, 10)
                   for offset in range(0, 20, 10)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(_store_batch, batches))
        spec = ExperimentSpec("shared", counting_experiment)
        cache = ResultCache(str(tmp_path))
        with open(cache.path_for(spec), "a") as handle:
            handle.write('{"key": "torn-by-a-crash')
        fresh = ResultCache(str(tmp_path))
        assert all(fresh.lookup(spec, {"seed": seed}) is not None
                   for seed in range(20))


class TestBoundedGrowth:
    def _fill(self, cache, names, runs=2):
        for stamp, name in enumerate(names):
            spec = ExperimentSpec(name, counting_experiment)
            _run(spec, runs, cache)
            # Deterministic LRU order regardless of filesystem timestamp
            # granularity: age each file explicitly.
            os.utime(cache.path_for(spec), (stamp, stamp))

    def test_unbounded_by_default(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        self._fill(cache, ["a", "b", "c"])
        assert cache.pruned_files == 0
        assert len(os.listdir(tmp_path)) == 3

    def test_lru_files_pruned_beyond_max_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=4)
        self._fill(cache, ["old", "mid"])  # 4 entries: at the bound
        spec = ExperimentSpec("new", counting_experiment)
        _run(spec, 2, cache)  # 6 entries: evict the oldest file
        assert cache.pruned_files == 1
        names = os.listdir(tmp_path)
        assert not any(name.startswith("old-") for name in names)
        assert any(name.startswith("mid-") for name in names)
        assert any(name.startswith("new-") for name in names)

    def test_lookup_touch_protects_hot_files(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=4)
        old = ExperimentSpec("old", counting_experiment)
        mid = ExperimentSpec("mid", counting_experiment)
        self._fill(cache, ["old", "mid"])
        # A hit on "old" refreshes its mtime, making "mid" the LRU file.
        assert cache.lookup(old, {"seed": 0}) is not None
        _run(ExperimentSpec("new", counting_experiment), 2, cache)
        names = os.listdir(tmp_path)
        assert any(name.startswith("old-") for name in names)
        assert not any(name.startswith("mid-") for name in names)
        assert cache.lookup(mid, {"seed": 0},
                            fingerprint=mid.fingerprint()) is None

    def test_just_written_file_is_never_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=1)
        spec = ExperimentSpec("solo", counting_experiment)
        _run(spec, 5, cache)  # five entries in one file: over the bound
        assert cache.pruned_files == 0
        assert cache.lookup(spec, {"seed": 0}) is not None

    def test_hit_miss_accounting_survives_pruning(self, tmp_path):
        cache = ResultCache(str(tmp_path), max_entries=2)
        self._fill(cache, ["a", "b", "c"])
        hits0, misses0 = cache.hits, cache.misses
        spec_a = ExperimentSpec("a", counting_experiment)
        assert cache.lookup(spec_a, {"seed": 0}) is None  # pruned: a miss
        spec_c = ExperimentSpec("c", counting_experiment)
        assert cache.lookup(spec_c, {"seed": 0}) is not None
        assert (cache.hits, cache.misses) == (hits0 + 1, misses0 + 1)

    def test_bad_max_entries_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            ResultCache(str(tmp_path), max_entries=0)

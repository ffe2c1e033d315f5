"""End-to-end: monte_carlo/explore through the campaign runner.

The acceptance bar for the subsystem: parallel and cached execution
must be invisible in the aggregated results -- byte-identical to a
plain loop over the same seeds or configurations, written here so the
reference stays outside the runner.
"""

import pickle
import random

import pytest

from repro.campaign import Parameter, configurations, explore, monte_carlo
from repro.errors import CampaignError
from repro.kernel.time import MS, US
from repro.mcse import System


def simulation_experiment(seed):
    """A real (small) RTOS simulation per seed."""
    system = System("mc")
    cpu = system.processor("cpu", scheduling_duration=1 * US)
    rng = random.Random(seed)
    responses = []

    def periodic(fn):
        for _ in range(5):
            yield from fn.execute(rng.randrange(100, 2000) * US)
            responses.append(system.now)
            yield from fn.delay(1 * MS)

    cpu.map(system.function("main", periodic, priority=1))
    system.run()
    return {"last": responses[-1], "count": len(responses)}


def failing_experiment(seed):
    if seed == 1:
        raise RuntimeError("seed 1 breaks")
    return {"v": seed}


def grid_build(config):
    system = System("dse")
    cpu = system.processor("cpu",
                           scheduling_duration=config["overhead"])

    def body(fn):
        yield from fn.execute(config["work"])

    cpu.map(system.function("t", body))
    return system


def grid_metrics(config, system):
    return {
        "end": system.now,
        "overhead": system.processors["cpu"].overhead_time,
    }


def failing_build(config):
    if config["work"] == 20 * US:
        raise RuntimeError("work 20us breaks")
    return grid_build(config)


GRID = [
    Parameter("overhead", [0, 2 * US, 5 * US]),
    Parameter("work", [10 * US, 20 * US]),
]


def reference_campaign(experiment, runs, base_seed=0):
    """Metric name -> values, by calling ``experiment`` per seed."""
    values = {}
    for seed in range(base_seed, base_seed + runs):
        for name, value in experiment(seed).items():
            values.setdefault(name, []).append(value)
    return values


def reference_grid(duration=None):
    """``(config, metrics, now)`` per GRID point: build, run, measure."""
    points = []
    for config in configurations(GRID):
        system = grid_build(dict(config))
        system.run(duration)
        points.append((config, grid_metrics(dict(config), system),
                       system.now))
    return points


class TestMonteCarloParallel:
    def test_workers_byte_identical_to_serial(self):
        reference = reference_campaign(simulation_experiment, 6,
                                       base_seed=3)
        for workers in (1, 2):
            campaign = monte_carlo(simulation_experiment, runs=6,
                                   base_seed=3, workers=workers)
            values = {name: sample.values
                      for name, sample in campaign.items()}
            assert pickle.dumps(values) == pickle.dumps(reference)
            assert campaign.runs == 6

    def test_cached_rerun_identical(self, tmp_path):
        cold = monte_carlo(simulation_experiment, runs=4,
                           workers=2, cache=str(tmp_path))
        warm = monte_carlo(simulation_experiment, runs=4,
                           cache=str(tmp_path))
        assert pickle.dumps(dict(cold)) == pickle.dumps(dict(warm))
        assert warm.stats["cache_hits"] == 4
        assert warm.stats["cache_misses"] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises_with_failure_details(self, workers):
        with pytest.raises(CampaignError, match="seed 1 breaks"):
            monte_carlo(failing_experiment, runs=3, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_going_collects_failures(self, workers):
        campaign = monte_carlo(failing_experiment, runs=3,
                               workers=workers, strict=False)
        assert campaign.runs == 2
        assert campaign["v"].values == [0, 2]
        assert len(campaign.failures) == 1
        assert campaign.failures[0].params == {"seed": 1}


class TestExploreParallel:
    @staticmethod
    def _flatten(results):
        return [(r.config, r.metrics, r.simulated_time) for r in results]

    def test_workers_byte_identical_to_serial(self):
        # repr is order- and type-sensitive but identity-insensitive
        # (pickle bytes differ only through memoized shared ints)
        reference = repr(reference_grid())
        for workers in (1, 2):
            results = explore(GRID, grid_build, grid_metrics,
                              workers=workers)
            assert repr(self._flatten(results)) == reference

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_raises_with_failure_details(self, workers):
        with pytest.raises(CampaignError, match="work 20us breaks"):
            explore(GRID, failing_build, grid_metrics, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_going_collects_failures(self, workers):
        results = explore(GRID, failing_build, grid_metrics,
                          workers=workers, strict=False)
        assert [r.config for r in results] == [
            config for config in configurations(GRID)
            if config["work"] == 10 * US
        ]

    def test_cached_rerun_identical(self, tmp_path):
        cold = explore(GRID, grid_build, grid_metrics, workers=2,
                       cache=str(tmp_path))
        warm = explore(GRID, grid_build, grid_metrics,
                       cache=str(tmp_path))
        assert self._flatten(cold) == self._flatten(warm)

    def test_duration_bound_respected_in_parallel(self):
        results = explore(GRID, grid_build, grid_metrics,
                          duration=5 * US, workers=2)
        assert all(r.simulated_time <= 5 * US for r in results)

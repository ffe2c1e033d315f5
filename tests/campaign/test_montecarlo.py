"""Tests for Monte-Carlo campaigns."""

import pytest

from repro.errors import ReproError
from repro.kernel.time import MS, US
from repro.campaign import format_campaign, monte_carlo


def deterministic_experiment(seed):
    return {"value": seed * 10, "constant": 7}


class TestCampaignMechanics:
    def test_runs_and_aggregation(self):
        campaign = monte_carlo(deterministic_experiment, runs=5)
        assert campaign.runs == 5
        assert campaign["value"].values == [0, 10, 20, 30, 40]
        assert campaign["constant"].values == [7] * 5

    def test_base_seed_offsets(self):
        campaign = monte_carlo(deterministic_experiment, runs=3, base_seed=100)
        assert campaign["value"].values == [1000, 1010, 1020]

    def test_reproducible(self):
        a = monte_carlo(deterministic_experiment, runs=4)
        b = monte_carlo(deterministic_experiment, runs=4)
        assert a["value"].values == b["value"].values

    def test_zero_runs_rejected(self):
        with pytest.raises(ReproError):
            monte_carlo(deterministic_experiment, runs=0)


class TestMetricSample:
    def test_statistics(self):
        campaign = monte_carlo(deterministic_experiment, runs=5)
        sample = campaign["value"]
        assert sample.minimum() == 0
        assert sample.maximum() == 40
        assert sample.mean() == 20
        assert sample.p(50) == 20

    def test_probability(self):
        campaign = monte_carlo(deterministic_experiment, runs=10)
        miss_prob = campaign["value"].probability(lambda v: v >= 50)
        assert miss_prob == pytest.approx(0.5)

    def test_format(self):
        campaign = monte_carlo(deterministic_experiment, runs=3)
        text = format_campaign(campaign)
        assert "3 runs" in text
        assert "value" in text

    def test_empty_sample_mean_raises_repro_error(self):
        from repro.campaign import MetricSample

        sample = MetricSample("empty")
        with pytest.raises(ReproError, match="'empty' has no samples"):
            sample.mean()

    def test_empty_sample_mean_is_not_zero_division(self):
        from repro.campaign import MetricSample

        try:
            MetricSample("e").mean()
        except ZeroDivisionError:  # the old failure mode
            pytest.fail("empty mean leaked a ZeroDivisionError")
        except ReproError:
            pass


class TestSimulationCampaign:
    def test_stochastic_response_distribution(self):
        """A full campaign over a stochastic RTOS workload: the p95
        response exceeds the mean-budget response and miss probability
        is monotone in the deadline."""
        import random

        from repro.mcse import System
        from repro.workloads import Normal

        dist = Normal(2 * MS, 500 * US, minimum=100 * US)

        def experiment(seed):
            system = System("mc")
            cpu = system.processor("cpu")
            rng = random.Random(seed)
            responses = []

            def periodic(fn):
                release = 0
                for _ in range(10):
                    yield from fn.execute(dist.sample(rng))
                    responses.append(system.now - release)
                    release += 5 * MS
                    if system.now < release:
                        yield from fn.delay(release - system.now)

            def interferer(fn):
                for _ in range(25):
                    yield from fn.execute(dist.sample(rng) // 4)
                    yield from fn.delay(2 * MS)

            cpu.map(system.function("main", periodic, priority=1))
            cpu.map(system.function("irq", interferer, priority=9))
            system.run()
            return {"worst_response": max(responses)}

        campaign = monte_carlo(experiment, runs=25)
        sample = campaign["worst_response"]
        assert sample.p(95) >= sample.p(50)
        loose = sample.probability(lambda v: v > 10 * MS)
        tight = sample.probability(lambda v: v > 3 * MS)
        assert loose <= tight
        assert campaign.runs == 25


def module_level_experiment(seed):
    return {"value": seed * 10, "constant": 7}


class TestParallelDelegation:
    """monte_carlo(workers=N) must be invisible in the results."""

    def test_workers_identical_aggregation(self):
        seeds = range(5, 13)
        reference = {
            name: [module_level_experiment(seed)[name] for seed in seeds]
            for name in ("value", "constant")
        }
        for workers in (1, 2):
            campaign = monte_carlo(module_level_experiment, runs=8,
                                   base_seed=5, workers=workers)
            assert repr({name: sample.values
                         for name, sample in campaign.items()}) == \
                repr(reference)
            assert campaign.stats["workers"] == workers

    def test_serial_path_populates_stats(self):
        campaign = monte_carlo(module_level_experiment, runs=2)
        assert set(campaign.stats) == {
            "spec", "runs", "ok", "failed", "cached", "cache_hits",
            "cache_misses", "workers", "wall_s", "runs_per_s",
        }
        assert campaign.stats["spec"] == "module_level_experiment"
        assert campaign.stats["runs"] == 2
        assert campaign.stats["workers"] == 1
        assert campaign.failures == []

"""Tests for the design-space exploration driver."""

import pytest

from repro.errors import ReproError
from repro.kernel.time import MS, US
from repro.campaign import (
    Parameter,
    configurations,
    explore,
    pareto_front,
    tabulate,
)
from repro.campaign.dse import ExplorationResult
from repro.mcse import System


class TestConfigurations:
    def test_cross_product_deterministic(self):
        space = [
            Parameter("a", [1, 2]),
            Parameter("b", ["x", "y", "z"]),
        ]
        configs = configurations(space)
        assert len(configs) == 6
        assert configs[0] == {"a": 1, "b": "x"}
        assert configs[-1] == {"a": 2, "b": "z"}
        assert configurations(space) == configs

    def test_empty_parameter_rejected(self):
        with pytest.raises(ReproError):
            Parameter("a", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError):
            configurations([Parameter("a", [1]), Parameter("a", [2])])


def simple_build(config):
    """A one-task system whose duration depends on the config."""
    system = System("dse")
    cpu = system.processor(
        "cpu", scheduling_duration=config["overhead"],
    )

    def body(fn):
        yield from fn.execute(config["work"])

    cpu.map(system.function("t", body))
    return system


def simple_metrics(config, system):
    return {
        "end": system.now,
        "overhead": system.processors["cpu"].overhead_time,
    }


class TestExplore:
    def test_runs_every_point(self):
        space = [
            Parameter("overhead", [0, 5 * US]),
            Parameter("work", [10 * US, 20 * US]),
        ]
        results = explore(space, simple_build, simple_metrics)
        assert len(results) == 4
        ends = {tuple(r.config.values()): r.metrics["end"] for r in results}
        # zero-overhead 10us work finishes at 10us + final sched (0)
        assert ends[(0, 10 * US)] == 10 * US
        # 5us overhead adds the dispatch & terminate scheduling passes
        assert ends[(5 * US, 10 * US)] == 20 * US

    def test_result_getitem(self):
        result = ExplorationResult(
            config={"a": 1}, metrics={"m": 2}, simulated_time=0
        )
        assert result["a"] == 1
        assert result["m"] == 2

    def test_parallel_results_deterministically_ordered(self):
        """workers=2 must return a plain loop's order and values."""
        space = [
            Parameter("overhead", [0, 2 * US, 5 * US]),
            Parameter("work", [10 * US, 20 * US]),
        ]
        reference = []
        for config in configurations(space):
            system = simple_build(dict(config))
            system.run()
            reference.append((config, simple_metrics(dict(config), system),
                              system.now))
        parallel = explore(space, simple_build, simple_metrics, workers=2)
        assert repr(reference) == repr(
            [(r.config, r.metrics, r.simulated_time) for r in parallel]
        )


class TestPareto:
    def make(self, latency, misses):
        return ExplorationResult(
            config={}, metrics={"latency": latency, "misses": misses},
            simulated_time=0,
        )

    def test_front_excludes_dominated(self):
        a = self.make(10, 0)
        b = self.make(5, 2)
        c = self.make(12, 1)  # dominated by a
        front = pareto_front([a, b, c], minimize=("latency", "misses"))
        assert a in front and b in front and c not in front

    def test_identical_points_both_kept(self):
        a = self.make(1, 1)
        b = self.make(1, 1)
        front = pareto_front([a, b], minimize=("latency", "misses"))
        assert len(front) == 2

    def test_tie_on_one_metric_still_dominates(self):
        a = self.make(1, 5)
        b = self.make(1, 7)  # same latency, strictly worse misses
        front = pareto_front([a, b], minimize=("latency", "misses"))
        assert front == [a]

    def test_tie_on_every_metric_is_not_domination(self):
        # equal everywhere => no strict improvement => both survive,
        # in input order
        points = [self.make(3, 3), self.make(3, 3), self.make(3, 3)]
        front = pareto_front(points, minimize=("latency", "misses"))
        assert front == points

    def test_duplicates_of_a_dominated_point_all_removed(self):
        best = self.make(1, 1)
        dup1 = self.make(2, 2)
        dup2 = self.make(2, 2)
        front = pareto_front([dup1, best, dup2],
                             minimize=("latency", "misses"))
        assert front == [best]

    def test_single_metric_ties(self):
        a = self.make(1, 9)
        b = self.make(1, 0)
        c = self.make(2, 0)  # dominated on the single metric
        front = pareto_front([a, b, c], minimize=("latency",))
        assert front == [a, b]

    def test_empty_metric_list_rejected(self):
        with pytest.raises(ReproError):
            pareto_front([], minimize=())


class TestTabulate:
    def test_renders_all_rows(self):
        space = [Parameter("overhead", [0, 5 * US])]

        def build(config):
            config["work"] = 10 * US
            return simple_build(config)

        results = explore(space, build, simple_metrics)
        text = tabulate(results, columns=["overhead", "end"])
        assert "overhead" in text
        assert len(text.splitlines()) == 3

    def test_empty(self):
        assert tabulate([]) == "(no results)"

    def test_missing_column_dash(self):
        result = ExplorationResult(config={}, metrics={}, simulated_time=0)
        assert "-" in tabulate([result], columns=["ghost"])

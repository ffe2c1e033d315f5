"""Tests for the synthetic workload generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.kernel.time import MS, US
from repro.mcse import build_system
from repro.workloads import (
    build_periodic_system,
    generate_periodic_taskset,
    random_pipeline_spec,
    uunifast,
)
from repro.analyze import PeriodicTask, total_utilization


class TestUUniFast:
    @given(
        n=st.integers(1, 20),
        utilization=st.floats(0.05, 0.99),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_sums_to_target(self, n, utilization, seed):
        values = uunifast(n, utilization, random.Random(seed))
        assert len(values) == n
        assert sum(values) == pytest.approx(utilization)
        assert all(v >= 0 for v in values)

    def test_deterministic_for_seed(self):
        a = uunifast(5, 0.7, random.Random(42))
        b = uunifast(5, 0.7, random.Random(42))
        assert a == b

    def test_validation(self):
        with pytest.raises(ReproError):
            uunifast(0, 0.5, random.Random())
        with pytest.raises(ReproError):
            uunifast(3, 0, random.Random())


class TestTasksetGeneration:
    def test_shape(self):
        tasks = generate_periodic_taskset(8, 0.6, seed=1)
        assert len(tasks) == 8
        assert total_utilization(tasks) == pytest.approx(0.6, abs=0.05)
        for task in tasks:
            assert 1 * MS <= task.period <= 100 * MS
            assert task.wcet >= 1 * US

    def test_rate_monotonic_priority_order(self):
        tasks = generate_periodic_taskset(6, 0.5, seed=3)
        ordered = sorted(tasks, key=lambda t: t.period)
        priorities = [t.priority for t in ordered]
        assert priorities == sorted(priorities, reverse=True)

    def test_deterministic(self):
        assert generate_periodic_taskset(5, 0.5, seed=7) == (
            generate_periodic_taskset(5, 0.5, seed=7)
        )


class TestPeriodicSystem:
    def test_no_misses_at_low_utilization(self):
        tasks = generate_periodic_taskset(4, 0.3, seed=2)
        system, result = build_periodic_system(tasks)
        system.run(300 * MS)
        assert result.total_misses() == 0
        assert all(result.releases[t.name] > 0 for t in tasks)

    def test_misses_appear_when_overloaded(self):
        tasks = [
            PeriodicTask("a", wcet=6 * MS, period=10 * MS, priority=2),
            PeriodicTask("b", wcet=6 * MS, period=10 * MS, priority=1),
        ]
        system, result = build_periodic_system(tasks)
        system.run(100 * MS)
        assert result.total_misses() > 0

    def test_overheads_can_break_schedulability(self):
        """A set feasible with a free RTOS misses deadlines once context
        switches cost real time -- the effect the paper's model exists
        to expose."""
        tasks = [
            PeriodicTask("a", wcet=4 * MS, period=10 * MS, priority=3),
            PeriodicTask("b", wcet=4 * MS, period=12 * MS, priority=2),
            PeriodicTask("c", wcet=2 * MS, period=14 * MS, priority=1),
        ]
        free_system, free_result = build_periodic_system(tasks)
        free_system.run(200 * MS)
        costly_system, costly_result = build_periodic_system(
            tasks,
            scheduling_duration=400 * US,
            context_load_duration=400 * US,
            context_save_duration=400 * US,
        )
        costly_system.run(200 * MS)
        assert free_result.total_misses() == 0
        assert costly_result.total_misses() > free_result.total_misses()

    def test_edf_deadlines_refreshed(self):
        tasks = [
            PeriodicTask("a", wcet=2 * MS, period=10 * MS, priority=0),
            PeriodicTask("b", wcet=3 * MS, period=15 * MS, priority=0),
        ]
        system, result = build_periodic_system(
            tasks, policy="edf", set_deadlines=True
        )
        system.run(60 * MS)
        assert result.total_misses() == 0


class TestPipelineSpec:
    def test_builds_and_runs(self):
        spec = random_pipeline_spec(4, seed=5, processors=2, items=10)
        system = build_system(spec)
        system.run()
        final_queue = system.relations["q2"]
        assert final_queue.total_got == 10

    def test_stage_count_validation(self):
        with pytest.raises(ReproError):
            random_pipeline_spec(1)

    def test_deterministic(self):
        assert random_pipeline_spec(3, seed=9) == random_pipeline_spec(3, seed=9)

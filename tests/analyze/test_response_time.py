"""Tests for analytical RTA and its agreement with the simulator."""

import pytest

from repro.kernel.time import MS, US

from repro.analyze import (
    PeriodicTask,
    is_schedulable,
    liu_layland_bound,
    rate_monotonic_priorities,
    response_time_analysis,
    total_utilization,
)
from repro.workloads import build_periodic_system


def classic_set():
    """Buttazzo's textbook example set."""
    return [
        PeriodicTask("t1", wcet=1 * MS, period=4 * MS, priority=3),
        PeriodicTask("t2", wcet=2 * MS, period=6 * MS, priority=2),
        PeriodicTask("t3", wcet=3 * MS, period=12 * MS, priority=1),
    ]


class TestRTA:
    def test_textbook_fixed_point(self):
        results = response_time_analysis(classic_set())
        # R1 = 1; R2 = 2 + ceil(R2/4)*1 -> 3;
        # R3 = 3 + ceil(R3/4)*1 + ceil(R3/6)*2 converges at 10
        assert results["t1"] == 1 * MS
        assert results["t2"] == 3 * MS
        assert results["t3"] == 10 * MS

    def test_schedulable(self):
        assert is_schedulable(classic_set())

    def test_unschedulable_when_overloaded(self):
        tasks = [
            PeriodicTask("a", wcet=3 * MS, period=4 * MS, priority=2),
            PeriodicTask("b", wcet=3 * MS, period=6 * MS, priority=1),
        ]
        assert not is_schedulable(tasks)

    def test_overheads_increase_response(self):
        base = response_time_analysis(classic_set())
        with_overhead = response_time_analysis(
            classic_set(), context_switch=100 * US, scheduling=50 * US
        )
        assert with_overhead["t3"] > base["t3"]

    def test_blocking_term(self):
        tasks = [
            PeriodicTask("hi", wcet=1 * MS, period=10 * MS, priority=2,
                         blocking=2 * MS),
        ]
        assert response_time_analysis(tasks)["hi"] == 3 * MS


class TestUtilities:
    def test_total_utilization(self):
        assert total_utilization(classic_set()) == pytest.approx(
            1 / 4 + 2 / 6 + 3 / 12
        )

    def test_liu_layland(self):
        assert liu_layland_bound(1) == pytest.approx(1.0)
        assert liu_layland_bound(2) == pytest.approx(0.8284, abs=1e-3)

    def test_rate_monotonic_priorities(self):
        tasks = [
            PeriodicTask("slow", wcet=1, period=100, priority=0),
            PeriodicTask("fast", wcet=1, period=10, priority=0),
        ]
        ordered = {t.name: t.priority for t in rate_monotonic_priorities(tasks)}
        assert ordered["fast"] > ordered["slow"]


class TestRTAMatchesSimulation:
    def test_worst_case_response_at_critical_instant(self):
        """Synchronous release at t=0 is the critical instant: the first
        simulated job's response must equal the RTA fixed point."""
        tasks = classic_set()
        analytical = response_time_analysis(tasks)
        system, result = build_periodic_system(tasks)
        system.run(48 * MS)  # one hyperperiod
        for task in tasks:
            first_response = result.responses[task.name][0]
            assert first_response == analytical[task.name], task.name

    def test_simulated_worst_never_exceeds_rta(self):
        tasks = classic_set()
        analytical = response_time_analysis(tasks)
        system, result = build_periodic_system(tasks)
        system.run(96 * MS)
        for task in tasks:
            assert result.worst_response(task.name) <= analytical[task.name]

    def test_rta_with_overheads_matches_simulation(self):
        tasks = classic_set()
        sched, switch = 20 * US, 40 * US
        analytical = response_time_analysis(
            tasks, scheduling=sched, context_switch=switch
        )
        system, result = build_periodic_system(
            tasks,
            scheduling_duration=sched,
            context_load_duration=20 * US,
            context_save_duration=20 * US,
        )
        system.run(48 * MS)
        for task in tasks:
            # the overhead-aware RTA is an upper bound on the simulation
            assert result.responses[task.name][0] <= analytical[task.name], task.name

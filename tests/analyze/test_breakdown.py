"""Tests for breakdown-utilization search and overhead sensitivity."""

import pytest

from repro.kernel.time import MS, US
from repro.analyze import (
    PeriodicTask,
    breakdown_utilization,
    total_utilization,
)


def base_set():
    return [
        PeriodicTask("t1", wcet=1 * MS, period=5 * MS, priority=3),
        PeriodicTask("t2", wcet=2 * MS, period=10 * MS, priority=2),
        PeriodicTask("t3", wcet=2 * MS, period=20 * MS, priority=1),
    ]


class TestBreakdownUtilization:
    def test_feasible_set_has_headroom(self):
        tasks = base_set()  # U = 0.2 + 0.2 + 0.1 = 0.5
        breakdown = breakdown_utilization(tasks)
        assert breakdown > total_utilization(tasks)
        assert breakdown <= 1.01

    def test_overheads_shrink_breakdown(self):
        tasks = base_set()
        free = breakdown_utilization(tasks)
        costly = breakdown_utilization(
            tasks, context_switch=200 * US, scheduling=100 * US
        )
        assert costly < free

    def test_monotone_in_overhead(self):
        tasks = base_set()
        values = [
            breakdown_utilization(tasks, context_switch=cs * US,
                                  scheduling=cs * US)
            for cs in (0, 100, 300, 600)
        ]
        assert values == sorted(values, reverse=True)

    def test_breakdown_near_one_for_harmonic_rm(self):
        """Harmonic rate-monotonic sets are schedulable up to U=1."""
        tasks = [
            PeriodicTask("a", wcet=2 * MS, period=10 * MS, priority=2),
            PeriodicTask("b", wcet=4 * MS, period=20 * MS, priority=1),
        ]
        assert breakdown_utilization(tasks) == pytest.approx(1.0, abs=0.02)

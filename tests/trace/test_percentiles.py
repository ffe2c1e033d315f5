"""Tests for latency percentile helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.trace import latency_summary, percentile


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2  # 2.5 rounded banker-ish

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7], 95) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(
        values=st.lists(st.integers(0, 10**15), min_size=1, max_size=50),
        q=st.floats(0, 100),
    )
    def test_within_bounds(self, values, q):
        result = percentile(values, q)
        assert min(values) <= result <= max(values)

    @given(values=st.lists(st.integers(0, 10**12), min_size=2, max_size=30))
    def test_monotone_in_q(self, values):
        points = [percentile(values, q) for q in (0, 25, 50, 75, 100)]
        assert points == sorted(points)


class TestLatencySummary:
    def test_fields(self):
        summary = latency_summary([10, 20, 30, 40, 50])
        assert summary["count"] == 5
        assert summary["min"] == 10
        assert summary["max"] == 50
        assert summary["mean"] == 30
        assert summary["p50"] == 30

    def test_empty(self):
        assert latency_summary([]) == {"count": 0}

    def test_on_simulated_latencies(self):
        from repro.workloads import build_automotive_system

        system, _, result, _ = build_automotive_system(cycles=10)
        system.run()
        summary = latency_summary(result.wheel_latencies)
        assert summary["count"] == 20
        assert summary["min"] <= summary["p50"] <= summary["p99"] <= summary["max"]

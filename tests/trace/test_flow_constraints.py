"""Tests for precedence and throughput constraints plus the histogram."""

import pytest

from repro.kernel.time import MS, US
from repro.mcse import System
from repro.trace import (
    PrecedenceConstraint,
    ThroughputConstraint,
    TraceRecorder,
    ascii_histogram,
)


def build_pipeline(consumer_lag=0, items=5, gap=10 * US):
    system = System("flow")
    recorder = TraceRecorder(system.sim)
    q_in = system.queue("q_in", capacity=8)
    q_out = system.queue("q_out", capacity=8)

    def producer(fn):
        for i in range(items):
            yield from fn.write(q_in, i)
            yield from fn.delay(gap)

    def worker(fn):
        for _ in range(items):
            item = yield from fn.read(q_in)
            if consumer_lag:
                yield from fn.execute(consumer_lag)
            yield from fn.write(q_out, item)

    system.function("p", producer)
    system.function("w", worker)
    system.run()
    return system, recorder


class TestPrecedenceConstraint:
    def test_fast_pipeline_passes(self):
        _, recorder = build_pipeline()
        constraint = PrecedenceConstraint("q_in", "q_out", 1 * US)
        assert constraint.check(recorder) == []

    def test_slow_consumer_fails(self):
        _, recorder = build_pipeline(consumer_lag=50 * US)
        constraint = PrecedenceConstraint("q_in", "q_out", 10 * US)
        violations = constraint.check(recorder)
        assert violations
        assert "bound" in violations[0].detail

    def test_missing_follower_detected(self):
        system = System("orphan")
        recorder = TraceRecorder(system.sim)
        q_in = system.queue("q_in", capacity=8)
        system.queue("q_out", capacity=8)

        def producer(fn):
            yield from fn.write(q_in, 1)
            yield from fn.delay(100 * US)  # the bound expires in-trace

        system.function("p", producer)
        system.run()
        constraint = PrecedenceConstraint("q_in", "q_out", 10 * US)
        violations = constraint.check(recorder)
        assert violations
        assert "never followed" in violations[0].detail


class TestThroughputConstraint:
    def test_steady_stream_passes(self):
        _, recorder = build_pipeline(items=10, gap=10 * US)
        constraint = ThroughputConstraint("q_out", 1, 20 * US)
        assert constraint.check(recorder) == []

    def test_starved_window_fails(self):
        system = System("bursty")
        recorder = TraceRecorder(system.sim)
        q = system.queue("q", capacity=8)

        def producer(fn):
            yield from fn.write(q, 1)
            yield from fn.delay(100 * US)  # long silence
            yield from fn.write(q, 2)

        system.function("p", producer)
        system.run()
        constraint = ThroughputConstraint("q", 1, 25 * US)
        violations = constraint.check(recorder)
        assert violations
        assert "window" in violations[0].detail

    def test_partial_trailing_window_ignored(self):
        system = System("tail")
        recorder = TraceRecorder(system.sim)
        q = system.queue("q", capacity=8)

        def producer(fn):
            yield from fn.write(q, 1)
            yield from fn.delay(30 * US)

        system.function("p", producer)
        system.run()
        # window 25us: [0,25) has the access; [25,50) is partial (trace
        # ends at 30us) and must not be judged
        constraint = ThroughputConstraint("q", 1, 25 * US)
        assert constraint.check(recorder) == []


class TestAsciiHistogram:
    def test_empty(self):
        assert ascii_histogram([]) == "(no samples)"

    def test_single_value(self):
        text = ascii_histogram([5 * US, 5 * US])
        assert "5us" in text and "2" in text

    def test_bins_and_counts(self):
        values = [1 * US] * 8 + [10 * US] * 2
        text = ascii_histogram(values, bins=3, width=20)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "8" in lines[0]
        assert "2" in lines[-1]
        # counts conserved
        import re

        counts = [int(re.findall(r"\s(\d+)\s\|", line)[0]) for line in lines]
        assert sum(counts) == 10

"""Tests for the trace-diff utility, including full-trace engine equality."""

from repro.kernel.time import US
from repro.trace import TraceRecorder, diff_traces, format_diff, traces_equal

from ..rtos.helpers import build_fig6_system


def record_fig6(engine):
    system, _ = build_fig6_system(engine)
    recorder = TraceRecorder(system.sim)
    system.run()
    return recorder


class TestDiff:
    def test_identical_runs_are_equal(self):
        a = record_fig6("procedural")
        b = record_fig6("procedural")
        assert traces_equal(a, b)
        assert diff_traces(a, b) == []
        assert format_diff([]) == "traces are observably identical"

    def test_engines_produce_observably_identical_traces(self):
        """The strongest §4 equivalence statement: not just the event
        logs, the FULL observable traces of both engines match."""
        procedural = record_fig6("procedural")
        threaded = record_fig6("threaded")
        divergences = diff_traces(procedural, threaded)
        assert divergences == [], format_diff(divergences)

    def test_detects_timing_divergence(self):
        a = record_fig6("procedural")
        # a different clock period shifts everything after 50us
        system, _ = build_fig6_system("procedural", clk_period=50 * US)
        b = TraceRecorder(system.sim)
        system.run()
        divergences = diff_traces(a, b)
        assert divergences
        assert "!=" in str(divergences[0])

    def test_detects_missing_records(self):
        from repro.trace.records import StateRecord

        a = record_fig6("procedural")
        b = record_fig6("procedural")
        # drop the last *observable* record (overheads are not compared)
        for index in range(len(b.records) - 1, -1, -1):
            if isinstance(b.records[index], StateRecord):
                del b.records[index]
                break
        divergences = diff_traces(a, b)
        assert divergences
        assert "<missing>" in str(divergences[-1])

    def test_limit_respected(self):
        a = record_fig6("procedural")
        system, _ = build_fig6_system("procedural", clk_period=50 * US)
        b = TraceRecorder(system.sim)
        system.run()
        assert len(diff_traces(a, b, limit=3)) == 3

    def test_format_diff_readable(self):
        a = record_fig6("procedural")
        system, _ = build_fig6_system("procedural", clk_period=50 * US)
        b = TraceRecorder(system.sim)
        system.run()
        text = format_diff(diff_traces(a, b, limit=2))
        assert "divergence" in text
        assert "@" in text

"""Tests for trace measurements (the TimeLine hand-measurements, coded)."""

import pytest

from repro.kernel.time import US
from repro.mcse import System
from repro.trace import (
    TraceRecorder,
    blocking_intervals,
    reaction_latencies,
    response_times,
    state_intervals,
    stimulus_times,
    switch_sequences,
)
from repro.trace.records import TaskState

from ..rtos.helpers import build_fig6_system


@pytest.fixture()
def fig6():
    system, log = build_fig6_system("procedural")
    recorder = TraceRecorder(system.sim)
    system.run()
    return system, recorder, dict(log)


class TestReactionLatency:
    def test_fig6_measurement_1(self, fig6):
        """The paper's measurement (1): Clk -> Function_1 = 15us."""
        _, recorder, _ = fig6
        latencies = reaction_latencies(recorder, "Clk", "Function_1")
        assert latencies == [15 * US]

    def test_multiple_stimuli(self):
        system, _ = build_fig6_system("procedural")
        # re-build with a repeating clock and looping Function_1
        system = System("rep")
        recorder = TraceRecorder(system.sim)
        clk = system.event("Clk", policy="counter")
        cpu = system.processor("cpu")

        def f1(fn):
            for _ in range(3):
                yield from fn.wait(clk)
                yield from fn.execute(5 * US)

        def clock(fn):
            for _ in range(3):
                yield from fn.delay(50 * US)
                yield from fn.signal(clk)

        cpu.map(system.function("f1", f1, priority=5))
        system.function("clock", clock)
        system.run()
        latencies = reaction_latencies(recorder, "Clk", "f1")
        # zero overheads and idle CPU: reaction latency 0 each time
        assert latencies == [0, 0, 0]

    def test_stimulus_times_from_relation(self, fig6):
        _, recorder, times = fig6
        assert stimulus_times(recorder, "Clk") == [times["Clk"]]


class TestStateIntervals:
    def test_running_intervals_sum_to_cpu_time(self, fig6):
        system, recorder, _ = fig6
        intervals = state_intervals(recorder, "Function_3", TaskState.RUNNING)
        assert sum(i.duration for i in intervals) == 200 * US

    def test_preemption_splits_running(self, fig6):
        _, recorder, _ = fig6
        intervals = state_intervals(recorder, "Function_3", TaskState.RUNNING)
        assert len(intervals) == 2  # split by the Clk preemption

    def test_blocking_intervals_empty_without_resources(self, fig6):
        _, recorder, _ = fig6
        assert blocking_intervals(recorder, "Function_2") == []


class TestSwitchSequences:
    def test_fig6_patterns(self, fig6):
        """The (b) and (c) overhead patterns appear on the processor row."""
        _, recorder, times = fig6
        sequences = switch_sequences(recorder, "Processor")
        patterns = [kinds for _, kinds in sequences]
        # case (b): the Clk preemption is save+sched+load back to back
        assert ("context_save", "scheduling", "context_load") in patterns
        # case (c): the Event_1 signal is a lone scheduling pass
        assert ("scheduling",) in patterns

    def test_case_b_window_is_15us(self, fig6):
        _, recorder, times = fig6
        sequences = switch_sequences(recorder, "Processor")
        windows = [
            interval
            for interval, kinds in sequences
            if kinds == ("context_save", "scheduling", "context_load")
            and interval.start == times["Clk"]
        ]
        assert len(windows) == 1
        assert windows[0].duration == 15 * US


class TestResponseTimes:
    def test_simple_periodic_task(self):
        system = System("t")
        recorder = TraceRecorder(system.sim)
        cpu = system.processor("cpu")
        tick = system.event("tick", policy="counter")

        def worker(fn):
            for _ in range(3):
                yield from fn.wait(tick)
                yield from fn.execute(4 * US)

        cpu.map(system.function("w", worker, priority=1))
        for i in range(1, 4):
            system.sim.schedule_callback(i * 20 * US, tick.signal)
        system.run()
        responses = response_times(recorder, "w")
        # creation->first block is an activation too; then 3 tick jobs
        assert responses[1:] == [4 * US, 4 * US, 4 * US]

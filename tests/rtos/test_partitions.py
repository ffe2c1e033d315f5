"""Tests for ARINC-653-style time-partition scheduling."""

import pytest

from repro.errors import RTOSError
from repro.kernel.time import MS, US
from repro.mcse import System
from repro.rtos import TimePartitionPolicy
from repro.trace import TraceRecorder, state_intervals
from repro.trace.records import TaskState


def build_two_partitions(engine="procedural", work=12 * MS):
    """Partitions A (5ms) and B (3ms) alternating; one busy task each."""
    system = System("part")
    policy = TimePartitionPolicy([("A", 5 * MS), ("B", 3 * MS)])
    cpu = system.processor("cpu", engine=engine, policy=policy)
    recorder = TraceRecorder(system.sim)

    def busy(fn):
        yield from fn.execute(work)

    for partition in ("A", "B"):
        fn = system.function(f"task{partition}", busy, priority=1)
        fn.partition = partition
        cpu.map(fn)
    return system, recorder, policy


class TestValidation:
    def test_empty_windows(self):
        with pytest.raises(RTOSError):
            TimePartitionPolicy([])

    def test_zero_window(self):
        with pytest.raises(RTOSError):
            TimePartitionPolicy([("A", 0)])

    def test_single_processor_only(self):
        system = System("t")
        policy = TimePartitionPolicy([("A", 1 * MS)])
        system.processor("cpu0", policy=policy)
        with pytest.raises(RTOSError):
            system.processor("cpu1", policy=policy)

    def test_window_at(self):
        policy = TimePartitionPolicy([("A", 5 * MS), ("B", 3 * MS)])
        assert policy.window_at(0) == "A"
        assert policy.window_at(4 * MS) == "A"
        assert policy.window_at(5 * MS) == "B"
        assert policy.window_at(7 * MS) == "B"
        assert policy.window_at(8 * MS) == "A"  # next major frame
        assert policy.major_frame == 8 * MS


class TestPartitionEnforcement:
    def test_tasks_confined_to_their_windows(self):
        system, recorder, policy = build_two_partitions()
        system.run(40 * MS)
        for name, partition in (("taskA", "A"), ("taskB", "B")):
            for interval in state_intervals(recorder, name,
                                            TaskState.RUNNING,
                                            end_time=40 * MS):
                # sample inside the interval: must be the task's window
                for probe in (interval.start, interval.end - 1):
                    assert policy.window_at(probe) == partition, name

    def test_boundary_preemption_is_exact(self):
        """taskA is cut at exactly t=5ms, the window boundary."""
        system, recorder, _ = build_two_partitions()
        system.run(40 * MS)
        intervals = state_intervals(recorder, "taskA", TaskState.RUNNING,
                                    end_time=40 * MS)
        assert intervals[0].start == 0
        assert intervals[0].end == 5 * MS

    def test_work_conserved_across_windows(self):
        system, recorder, _ = build_two_partitions(work=12 * MS)
        system.run(100 * MS)
        for name in ("taskA", "taskB"):
            fn = system.functions[name]
            assert fn.task.cpu_time == 12 * MS

    def test_completion_times(self):
        """taskA needs 12ms of A-window: A owns [0,5) [8,13) [16,21) ...
        so it completes at 18ms; taskB's 12ms of B-window (3ms slices at
        [5,8) [13,16) [21,24) [29,32)) ends at 32ms."""
        system, recorder, _ = build_two_partitions(work=12 * MS)
        system.run(100 * MS)
        a_intervals = state_intervals(recorder, "taskA", TaskState.RUNNING,
                                      end_time=100 * MS)
        assert a_intervals[-1].end == 18 * MS
        b_intervals = state_intervals(recorder, "taskB", TaskState.RUNNING,
                                      end_time=100 * MS)
        assert b_intervals[-1].end == 32 * MS

    def test_engines_agree(self):
        sys_p, rec_p, _ = build_two_partitions("procedural")
        sys_t, rec_t, _ = build_two_partitions("threaded")
        sys_p.run(50 * MS)
        sys_t.run(50 * MS)
        assert sys_p.functions["taskA"].state_durations == (
            sys_t.functions["taskA"].state_durations
        )


class TestBackgroundTasks:
    def test_unpartitioned_task_fills_idle_windows(self):
        system = System("bg")
        policy = TimePartitionPolicy([("A", 5 * MS), ("B", 5 * MS)])
        cpu = system.processor("cpu", policy=policy)
        recorder = TraceRecorder(system.sim)

        def busy(fn):
            yield from fn.execute(8 * MS)

        a = system.function("taskA", busy, priority=5)
        a.partition = "A"
        cpu.map(a)
        background = system.function("background", busy, priority=1)
        cpu.map(background)  # no partition: eligible everywhere
        system.run(40 * MS)
        # the background task soaks up B windows (and leftover A time)
        assert background.task.cpu_time == 8 * MS
        bg_intervals = state_intervals(recorder, "background",
                                       TaskState.RUNNING, end_time=40 * MS)
        assert bg_intervals[0].start == 5 * MS  # starts in B's window

    def test_priority_within_window(self):
        system = System("prio")
        policy = TimePartitionPolicy([("A", 10 * MS)])
        cpu = system.processor("cpu", policy=policy)
        order = []

        def make(tag, dur):
            def body(fn):
                yield from fn.execute(dur)
                order.append(tag)

            return body

        for tag, priority in (("low", 1), ("high", 9)):
            fn = system.function(tag, make(tag, 2 * MS), priority=priority)
            fn.partition = "A"
            cpu.map(fn)
        system.run(20 * MS)
        assert order == ["high", "low"]

"""Tests for the kernel run loop, phases and run control."""

import time

import pytest

from repro.errors import DeadlockError, SchedulerError
from repro.kernel import Simulator
from repro.kernel.time import MS, NS, US
from repro.mcse.builder import build_system


class TestRunControl:
    def test_run_until_exhaustion_returns_last_time(self, sim):
        def body():
            yield 5 * US
            yield 3 * US

        sim.thread(body)
        end = sim.run()
        assert end == 8 * US

    def test_run_duration_is_relative(self, sim):
        def body():
            while True:
                yield 1 * US

        sim.thread(body)
        sim.run(5 * US)
        assert sim.now == 5 * US
        sim.run(5 * US)
        assert sim.now == 10 * US

    def test_run_until_absolute(self, sim):
        def body():
            while True:
                yield 1 * US

        sim.thread(body)
        sim.run(until=7 * US)
        assert sim.now == 7 * US

    def test_until_in_past_rejected(self, sim):
        def body():
            while True:
                yield 1 * US

        sim.thread(body)
        sim.run(5 * US)
        with pytest.raises(SchedulerError):
            sim.run(until=3 * US)

    def test_duration_and_until_mutually_exclusive(self, sim):
        with pytest.raises(SchedulerError):
            sim.run(1 * US, until=2 * US)

    def test_negative_duration_rejected(self, sim):
        with pytest.raises(SchedulerError):
            sim.run(-1)

    def test_event_at_end_bound_not_processed(self, sim):
        """SimPy-style exclusive bound: t==end activity runs next call."""
        log = []

        def body():
            yield 5 * US
            log.append(sim.now)

        sim.thread(body)
        sim.run(5 * US)
        assert log == []
        sim.run(1 * US)
        assert log == [5 * US]

    def test_stop_from_process(self, sim):
        log = []

        def body():
            yield 2 * US
            sim.stop()
            yield 10 * US
            log.append("resumed")

        sim.thread(body)
        sim.run()
        assert sim.now == 2 * US
        assert log == []
        # resumable after stop
        sim.run()
        assert log == ["resumed"]

    def test_empty_simulation(self, sim):
        assert sim.run() == 0
        assert sim.run(10 * US) == 10 * US


class TestDeterminism:
    def test_same_model_same_trace(self):
        def build_and_run():
            sim = Simulator("det")
            trace = []

            def worker(tag, step):
                for _ in range(5):
                    yield step
                    trace.append((sim.now, tag))

            for i, step in enumerate((3 * US, 5 * US, 7 * US)):
                sim.thread(worker, f"w{i}", step, name=f"w{i}")
            sim.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_fifo_order_within_same_instant(self, sim):
        order = []

        def make(tag):
            def body():
                yield 1 * US
                order.append(tag)

            return body

        for tag in "abcd":
            sim.thread(make(tag), name=tag)
        sim.run()
        assert order == list("abcd")


class TestDeltaCycles:
    def test_delta_count_increments(self, sim):
        ev = sim.event("ev")

        def a():
            ev.notify_delta()
            yield 1 * NS

        def b():
            yield ev

        sim.thread(b)
        sim.thread(a)
        before = sim.delta_count
        sim.run()
        assert sim.delta_count > before

    def test_zero_delay_loop_detected(self):
        sim = Simulator("guard", max_delta_cycles=100)

        def spinner():
            while True:
                yield 0  # never advances time

        sim.thread(spinner)
        with pytest.raises(SchedulerError, match="delta cycles"):
            sim.run()

    def test_zero_time_timed_loop_detected(self):
        # every iteration passes through the timed phase (a zero delay
        # arms a timed callback due now), which is no time progress
        system = build_system({
            "processors": [{"name": "cpu"}],
            "functions": [{
                "name": "spin", "processor": "cpu", "priority": 1,
                "script": [["loop", None, [["delay", "0us"]]]],
            }],
        }, sim=Simulator(max_delta_cycles=1000))
        started = time.perf_counter()
        with pytest.raises(SchedulerError, match="1000 delta cycles"):
            system.run(1 * MS)
        assert time.perf_counter() - started < 1.0

    def test_time_never_goes_backwards(self, sim):
        times = []

        def body():
            for step in (5 * US, 1 * NS, 3 * US, 0, 1 * NS):
                yield step
                times.append(sim.now)

        sim.thread(body)
        sim.run()
        assert times == sorted(times)


class TestDeadlockDetection:
    def test_deadlock_raises_when_requested(self, sim):
        ev = sim.event("never")

        def body():
            yield ev

        sim.thread(body, name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run(error_on_deadlock=True)

    def test_clean_termination_is_not_deadlock(self, sim):
        def body():
            yield 1 * US

        sim.thread(body)
        sim.run(error_on_deadlock=True)  # no exception

    def test_deadlock_silent_by_default(self, sim):
        ev = sim.event("never")

        def body():
            yield ev

        sim.thread(body)
        sim.run()  # returns quietly


class TestTimedCallbacks:
    def test_callback_fires(self, sim):
        log = []
        sim.schedule_callback(3 * US, lambda: log.append(sim.now))
        sim.run()
        assert log == [3 * US]

    def test_callback_cancel(self, sim):
        log = []
        handle = sim.schedule_callback(3 * US, lambda: log.append(sim.now))
        handle.cancelled = True
        sim.run(10 * US)
        assert log == []

    def test_callback_negative_delay_rejected(self, sim):
        with pytest.raises(SchedulerError):
            sim.schedule_callback(-1, lambda: None)

    def test_callbacks_ordered_fifo_at_same_instant(self, sim):
        log = []
        sim.schedule_callback(1 * US, lambda: log.append("first"))
        sim.schedule_callback(1 * US, lambda: log.append("second"))
        sim.run()
        assert log == ["first", "second"]


class TestSwitchCounting:
    def test_process_switches_counted(self, sim):
        def body():
            yield 1 * US
            yield 1 * US

        sim.thread(body)
        sim.run()
        # initial dispatch + two resumes
        assert sim.process_switch_count == 3

    def test_pending_activity(self, sim):
        def body():
            yield 5 * US

        sim.thread(body)
        assert sim.pending_activity()
        sim.run()
        assert not sim.pending_activity()

    def test_next_time(self, sim):
        def body():
            yield 5 * US

        sim.thread(body)
        sim.run(1 * US)
        assert sim.next_time() == 5 * US

"""Tests for thread and method processes and the yield protocol."""

import pytest

from repro.errors import ProcessError, SimulationError
from repro.kernel import (
    ProcessState,
    Simulator,
    delta,
    wait_all,
    wait_any,
    wait_for,
    wait_on,
)
from repro.kernel.time import NS, US


class TestThreadBasics:
    def test_time_wait(self, sim):
        log = []

        def body():
            yield 3 * US
            log.append(sim.now)
            yield wait_for(2 * US)
            log.append(sim.now)

        sim.thread(body)
        sim.run()
        assert log == [3 * US, 5 * US]

    def test_thread_args_passed(self, sim):
        log = []

        def body(a, b, scale=1):
            yield 1 * NS
            log.append((a + b) * scale)

        sim.thread(body, 2, 3, scale=10)
        sim.run()
        assert log == [50]

    def test_return_value_recorded(self, sim):
        def body():
            yield 1 * NS
            return 42

        proc = sim.thread(body)
        sim.run()
        assert proc.terminated
        assert proc.result == 42

    def test_forgot_yield_raises(self, sim):
        def not_a_generator():
            return 42

        with pytest.raises(ProcessError, match="generator"):
            sim.thread(not_a_generator)

    def test_yielding_garbage_raises(self, sim):
        def body():
            yield "soon"

        sim.thread(body)
        with pytest.raises(SimulationError):
            sim.run()

    def test_yielding_bool_raises(self, sim):
        def body():
            yield True

        sim.thread(body)
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_wait_raises(self, sim):
        def body():
            yield -5

        sim.thread(body)
        with pytest.raises(SimulationError):
            sim.run()

    def test_model_exception_propagates_with_context(self, sim):
        def body():
            yield 1 * US
            raise ValueError("model bug")

        sim.thread(body, name="buggy")
        with pytest.raises(SimulationError, match="buggy") as exc_info:
            sim.run()
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_delta_wait(self, sim):
        order = []

        def a():
            order.append("a1")
            yield delta()
            order.append("a2")

        def b():
            order.append("b1")
            yield 1 * NS
            order.append("b2")

        sim.thread(a)
        sim.thread(b)
        sim.run()
        # a2 happens in the next delta (still t=0), before b2 at 1ns
        assert order == ["a1", "b1", "a2", "b2"]


class TestWaitAnyAll:
    def test_wait_any_returns_first_event(self, sim):
        a, b = sim.event("a"), sim.event("b")
        log = []

        def body():
            fired = yield wait_any(a, b)
            log.append((sim.now, fired.name))

        sim.thread(body)
        b.notify_after(2 * US)
        a.notify_after(5 * US)
        sim.run()
        assert log == [(2 * US, "b")]

    def test_wait_any_list_spelling(self, sim):
        a, b = sim.event("a"), sim.event("b")
        log = []

        def body():
            fired = yield wait_any([a, b])
            log.append(fired.name)

        sim.thread(body)
        a.notify_after(1 * US)
        sim.run()
        assert log == ["a"]

    def test_tuple_yield_is_wait_any(self, sim):
        a, b = sim.event("a"), sim.event("b")
        log = []

        def body():
            fired = yield (a, b)
            log.append(fired.name)

        sim.thread(body)
        b.notify_after(1 * US)
        sim.run()
        assert log == ["b"]

    def test_no_double_wake_from_second_event(self, sim):
        """After wait_any resolves, the other event must not wake us later."""
        a, b = sim.event("a"), sim.event("b")
        wakes = []

        def body():
            yield wait_any(a, b)
            wakes.append(sim.now)
            yield 100 * US
            wakes.append(sim.now)

        sim.thread(body)
        a.notify_after(1 * US)
        b.notify_after(2 * US)
        sim.run()
        assert wakes == [1 * US, 101 * US]
        assert not a._waiters and not b._waiters

    def test_wait_all(self, sim):
        a, b, c = sim.event("a"), sim.event("b"), sim.event("c")
        log = []

        def body():
            result = yield wait_all(a, b, c)
            log.append((sim.now, result))

        sim.thread(body)
        a.notify_after(1 * US)
        c.notify_after(3 * US)
        b.notify_after(2 * US)
        sim.run()
        assert log == [(3 * US, None)]

    def test_wait_any_timeout_expires(self, sim):
        a = sim.event("a")
        log = []

        def body():
            fired = yield wait_any(a, timeout=4 * US)
            log.append((sim.now, fired))

        sim.thread(body)
        a.notify_after(10 * US)
        sim.run(20 * US)
        assert log == [(4 * US, None)]

    def test_wait_any_timeout_beaten_by_event(self, sim):
        a = sim.event("a")
        log = []

        def body():
            fired = yield wait_on(a, timeout=4 * US)
            log.append((sim.now, fired))

        sim.thread(body)
        a.notify_after(2 * US)
        sim.run(20 * US)
        assert log == [(2 * US, a)]
        # the event withdrew the 4us timeout: nothing is left scheduled
        assert not a._waiters and not sim.pending_activity()

    def test_empty_wait_any_rejected(self):
        with pytest.raises(ProcessError):
            wait_any()

    def test_non_event_rejected(self):
        with pytest.raises(ProcessError):
            wait_any("not an event")


class TestKillAndThrow:
    def test_kill_runs_finally(self, sim):
        log = []

        def body():
            try:
                yield 100 * US
            finally:
                log.append(("cleanup", sim.now))

        proc = sim.thread(body)

        def killer():
            yield 5 * US
            proc.kill()

        sim.thread(killer)
        sim.run()
        assert log == [("cleanup", 5 * US)]
        assert proc.terminated

    def test_kill_terminated_is_noop(self, sim):
        def body():
            yield 1 * NS

        proc = sim.thread(body)
        sim.run()
        proc.kill()  # no exception
        assert proc.terminated

    def test_throw_injects_exception(self, sim):
        log = []

        class Alarm(Exception):
            pass

        def body():
            try:
                yield 100 * US
            except Alarm:
                log.append(sim.now)
                yield 1 * US
            log.append(sim.now)

        proc = sim.thread(body)

        def interrupter():
            yield 3 * US
            proc.throw(Alarm())

        sim.thread(interrupter)
        sim.run()
        assert log == [3 * US, 4 * US]

    def test_throw_into_terminated_raises(self, sim):
        def body():
            yield 1 * NS

        proc = sim.thread(body)
        sim.run()
        with pytest.raises(ProcessError):
            proc.throw(RuntimeError())

    def test_join_request(self, sim):
        log = []

        def worker():
            yield 5 * US
            return "done"

        worker_proc = sim.thread(worker)

        def boss():
            yield worker_proc.join_request()
            log.append((sim.now, worker_proc.result))

        sim.thread(boss)
        sim.run()
        assert log == [(5 * US, "done")]

    def test_join_already_terminated(self, sim):
        def worker():
            yield 1 * US

        worker_proc = sim.thread(worker)

        log = []

        def boss():
            yield 10 * US
            yield worker_proc.join_request()  # already dead: resumes next delta
            log.append(sim.now)

        sim.thread(boss)
        sim.run()
        assert log == [10 * US]


class TestMethodProcess:
    def test_method_runs_on_each_trigger(self, sim):
        ev = sim.event("ev")
        runs = []

        def handler():
            runs.append(sim.now)

        sim.method(handler, sensitive=(ev,))
        ev.notify_after(1 * US)
        sim.run()
        ev.notify_after(1 * US)
        sim.run()
        # one initialization run plus two triggered runs
        assert runs == [0, 1 * US, 2 * US]

    def test_dont_initialize(self, sim):
        ev = sim.event("ev")
        runs = []
        sim.method(lambda: runs.append(sim.now), sensitive=(ev,), initialize=False)
        ev.notify_after(3 * US)
        sim.run()
        assert runs == [3 * US]

    def test_next_trigger_override(self, sim):
        ev = sim.event("ev")
        runs = []

        def handler():
            runs.append(sim.now)
            if len(runs) == 1:
                return 10 * US  # override: ignore ev until then

        sim.method(handler, sensitive=(ev,), initialize=False)
        ev.notify_after(1 * US)
        # an sc_event holds a single pending notification, so the 20us one
        # must be issued after the 1us one has fired
        sim.schedule_callback(20 * US, ev.notify_delta)
        # this 5us trigger lands while the dynamic override is active and
        # must therefore be ignored by the method process
        sim.schedule_callback(5 * US, ev.notify_delta)
        sim.run()
        # first run at 1us, then the 10us dynamic override fires at 11us
        # (the 20us static trigger resumes normal operation afterwards)
        assert runs == [1 * US, 11 * US, 20 * US]

    def test_method_exception_propagates(self, sim):
        ev = sim.event("ev")

        def handler():
            raise RuntimeError("handler bug")

        sim.method(handler, sensitive=(ev,), initialize=False, name="h")
        ev.notify_after(1 * US)
        with pytest.raises(SimulationError, match="h"):
            sim.run()


class TestProcessState:
    def test_lifecycle(self, sim):
        def body():
            yield 5 * US

        proc = sim.thread(body)
        assert proc.state in (ProcessState.CREATED, ProcessState.RUNNABLE)
        sim.run(1 * US)
        assert proc.state is ProcessState.WAITING
        sim.run()
        assert proc.state is ProcessState.TERMINATED

    def test_step_count(self, sim):
        def body():
            yield 1 * US
            yield 1 * US

        proc = sim.thread(body)
        sim.run()
        assert proc.step_count == 3  # initial run + two resumes


class TestWaitProtocol:
    """A waiting process is its own event waiter: one wake per wait, and
    nothing of a finished wait stays attached or armed."""

    @staticmethod
    def assert_detached(sim, *events):
        assert all(not ev._waiters for ev in events)
        assert not sim.pending_activity()

    @pytest.mark.parametrize("event_first", [True, False])
    def test_event_and_timeout_in_one_instant_wake_once(self, sim,
                                                        event_first):
        a = sim.event("a")
        wakes = []

        def waiter():
            fired = yield wait_any(a, timeout=5 * US)
            wakes.append((sim.now, fired))
            yield 100 * US
            wakes.append((sim.now, "slept"))

        def notifier():
            a.notify_after(5 * US)
            return
            yield  # pragma: no cover - makes this a generator function

        # the first thread to run pushes its heap entry first, and entries
        # of one instant fire in push order
        first, second = (notifier, waiter) if event_first else (waiter, notifier)
        sim.thread(first)
        sim.thread(second)
        sim.run()
        fired = a if event_first else None
        assert wakes == [(5 * US, fired), (105 * US, "slept")]
        self.assert_detached(sim, a)

    def test_wait_all_over_two_instants_disarms_its_timeout(self, sim):
        a, b = sim.event("a"), sim.event("b")
        wakes = []

        def waiter():
            yield wait_all(a, b, timeout=10 * US)
            wakes.append(sim.now)

        sim.thread(waiter)
        a.notify_after(2 * US)
        b.notify_after(4 * US)
        sim.run(until=6 * US)
        assert wakes == [4 * US]
        self.assert_detached(sim, a, b)

    def test_kill_during_event_and_timeout_wait(self, sim):
        a = sim.event("a")
        log = []

        def body():
            try:
                yield wait_any(a, timeout=10 * US)
                log.append("woken")
            finally:
                log.append(("cleanup", sim.now))

        proc = sim.thread(body)
        sim.schedule_callback(2 * US, proc.kill)
        sim.schedule_callback(3 * US, a.notify)
        sim.run()
        assert log == [("cleanup", 2 * US)] and proc.terminated
        assert sim.now == 3 * US  # the 10us timeout was withdrawn
        self.assert_detached(sim, a)

    def test_throw_during_event_and_timeout_wait(self, sim):
        a = sim.event("a")
        log = []

        def body():
            try:
                yield wait_any(a, timeout=10 * US)
            except ValueError:
                log.append(("caught", sim.now))
            yield 100 * US
            log.append(("slept", sim.now))

        proc = sim.thread(body)
        sim.schedule_callback(2 * US, lambda: proc.throw(ValueError()))
        sim.schedule_callback(3 * US, a.notify)
        sim.run()
        assert log == [("caught", 2 * US), ("slept", 102 * US)]
        self.assert_detached(sim, a)

    def test_method_next_trigger_on_event_and_timeout(self, sim):
        s, d = sim.event("s"), sim.event("d")
        runs = []

        def handler():
            runs.append(sim.now)
            if len(runs) == 1:
                return wait_any(d, timeout=10 * US)  # d beats the timeout
            if len(runs) == 2:
                return wait_any(d, timeout=3 * US)  # the timeout wins
            return None

        sim.method(handler, sensitive=(s,), initialize=False)
        for at, event in ((1, s), (2, s), (4, d), (8, d), (12, s)):
            sim.schedule_callback(at * US, event.notify)
        sim.run()
        # s at 2us is masked by the dynamic wait, d at 8us has no waiter,
        # and the withdrawn 11us timeout never runs the method
        assert runs == [1 * US, 4 * US, 7 * US, 12 * US]
        assert not d._waiters and not sim.pending_activity()

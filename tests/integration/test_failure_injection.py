"""Integration: failure injection and robustness of the model."""

import pytest

from repro.errors import ConstraintViolation, SimulationError
from repro.kernel.time import US
from repro.mcse import System
from repro.trace import TraceRecorder
from repro.trace.records import TaskState


class TestTaskKill:
    def test_killing_running_task_frees_the_cpu(self):
        """A killed RTOS task releases the processor; others continue."""
        system = System("kill")
        cpu = system.processor("cpu", scheduling_duration=2 * US)
        done = []

        def runaway(fn):
            yield from fn.execute(10_000 * US)

        def victim_watcher(fn):
            yield from fn.execute(5 * US)
            done.append(system.now)

        runaway_fn = system.function("runaway", runaway, priority=9)
        cpu.map(runaway_fn)
        cpu.map(system.function("other", victim_watcher, priority=1))

        def killer():
            yield 50 * US
            runaway_fn.process.kill()

        system.sim.thread(killer)
        system.run()
        assert runaway_fn.state is TaskState.TERMINATED
        assert done, "the other task never got the CPU after the kill"

    def test_killing_waiting_task_is_clean(self):
        system = System("kill2")
        cpu = system.processor("cpu")
        ev = system.event("never", policy="boolean")

        def sleeper(fn):
            yield from fn.wait(ev)

        def worker(fn):
            yield from fn.execute(30 * US)

        sleeper_fn = system.function("sleeper", sleeper, priority=9)
        cpu.map(sleeper_fn)
        cpu.map(system.function("worker", worker, priority=1))

        def killer():
            yield 10 * US
            sleeper_fn.process.kill()

        system.sim.thread(killer)
        end = system.run()
        assert end == 30 * US
        assert sleeper_fn.process.terminated


class TestModelErrors:
    def test_behavior_exception_names_the_task(self):
        system = System("boom")
        cpu = system.processor("cpu")

        def bad(fn):
            yield from fn.execute(5 * US)
            raise ValueError("kaboom")

        cpu.map(system.function("faulty", bad))
        with pytest.raises(SimulationError, match="faulty"):
            system.run()

    def test_double_unlock_detected_under_rtos(self):
        system = System("bad_unlock")
        cpu = system.processor("cpu")
        sv = system.shared("sv")

        def body(fn):
            yield from fn.lock(sv)
            yield from fn.unlock(sv)
            yield from fn.unlock(sv)  # model bug

        cpu.map(system.function("t", body))
        with pytest.raises(SimulationError):
            system.run()

    def test_deadlocked_rtos_tasks_reported(self):
        """Two tasks each holding what the other needs."""
        system = System("deadlock")
        cpu = system.processor("cpu")
        a = system.shared("a")
        b = system.shared("b")

        def t1(fn):
            yield from fn.lock(a)
            yield from fn.delay(10 * US)
            yield from fn.lock(b)

        def t2(fn):
            yield from fn.lock(b)
            yield from fn.delay(10 * US)
            yield from fn.lock(a)

        cpu.map(system.function("t1", t1, priority=2))
        cpu.map(system.function("t2", t2, priority=1))
        from repro.errors import DeadlockError

        with pytest.raises(DeadlockError):
            system.run(error_on_deadlock=True)


class TestHardConstraintInjection:
    def test_overload_trips_hard_constraint(self):
        from repro.trace import ConstraintSet, DeadlineConstraint

        system = System("overload")
        cpu = system.processor("cpu")
        recorder = TraceRecorder(system.sim)
        tick = system.event("tick", policy="counter")

        def periodic(fn):
            for _ in range(5):
                yield from fn.wait(tick)
                yield from fn.execute(8 * US)

        def hog(fn):
            yield from fn.execute(500 * US)

        cpu.map(system.function("periodic", periodic, priority=1))
        cpu.map(system.function("hog", hog, priority=9))
        for i in range(1, 6):
            system.sim.schedule_callback(i * 50 * US, tick.signal)
        system.run()

        constraints = ConstraintSet()
        constraints.add(
            DeadlineConstraint("periodic", 20 * US, hard=True)
        )
        with pytest.raises(ConstraintViolation):
            constraints.verify(recorder)


class TestRecorderUnderLoad:
    def test_bounded_recorder_survives_heavy_trace(self):
        from repro.workloads import Mpeg2Soc

        soc = Mpeg2Soc(frames=6, seed=0)
        recorder = TraceRecorder(soc.system.sim, limit=500)
        soc.run()
        assert len(recorder) == 500
        assert recorder.dropped > 0
        assert soc.completed_frames() == 6  # recording never alters timing

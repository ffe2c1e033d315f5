"""Tests for the online deadline watchdog."""

import pytest

from repro.errors import RTOSError
from repro.kernel.time import MS, US
from repro.mcse import System
from repro.rtos import DeadlineWatchdog
from repro.trace import TraceRecorder


def build_periodic(work, deadline, on_miss=None, hog_work=0):
    """One periodic task, optional higher-priority hog, one watchdog."""
    system = System("wd")
    cpu = system.processor("cpu")
    tick = system.event("tick", policy="counter")

    def periodic(fn):
        for _ in range(4):
            yield from fn.wait(tick)
            yield from fn.execute(work)

    cpu.map(system.function("periodic", periodic, priority=5))
    if hog_work:
        def hog(fn):
            yield from fn.delay(9 * MS)
            yield from fn.execute(hog_work)

        cpu.map(system.function("hog", hog, priority=9))
    for index in range(1, 5):
        system.sim.schedule_callback(index * 10 * MS, tick.signal)
    watchdog = DeadlineWatchdog(system.sim, "periodic", deadline,
                                on_miss=on_miss)
    return system, watchdog


class TestWatchdog:
    def test_no_misses_when_on_time(self):
        system, watchdog = build_periodic(2 * MS, 5 * MS)
        system.run()
        # creation is the first activation, then one per tick
        assert watchdog.activation_count == 5
        assert watchdog.miss_count == 0
        assert not watchdog.armed

    def test_miss_detected_at_exact_deadline(self):
        fired = []
        system, watchdog = build_periodic(
            8 * MS, 5 * MS,
            on_miss=lambda wd, activation: fired.append(
                (wd.sim.now, activation)
            ),
        )
        system.run()
        assert watchdog.miss_count == 4
        # the first activation at 10ms misses at exactly 15ms
        assert fired[0] == (15 * MS, 10 * MS)

    def test_interference_induced_miss(self):
        """The task alone is fine; a hog pushes one activation over."""
        quiet_system, quiet_wd = build_periodic(2 * MS, 5 * MS)
        quiet_system.run()
        busy_system, busy_wd = build_periodic(2 * MS, 5 * MS,
                                              hog_work=40 * MS)
        busy_system.run()
        assert quiet_wd.miss_count == 0
        assert busy_wd.miss_count >= 1
        assert busy_wd.missed_activations[0] == 10 * MS

    def test_misses_marked_in_trace(self):
        system, watchdog = build_periodic(8 * MS, 5 * MS)
        recorder = TraceRecorder(system.sim)
        system.run()
        markers = [m for m in recorder.markers()
                   if m.label.startswith("deadline_miss")]
        assert len(markers) == watchdog.miss_count

    def test_recovery_action_runs_in_simulation(self):
        """on_miss can mutate the model: here it sheds the hog load."""
        state = {}

        def shed_load(watchdog, activation):
            hog = state["system"].functions["hog"]
            if not hog.process.terminated:
                hog.process.kill()

        system, watchdog = build_periodic(2 * MS, 5 * MS,
                                          on_miss=shed_load,
                                          hog_work=100 * MS)
        state["system"] = system
        system.run()
        # exactly one miss: the recovery killed the interference
        assert watchdog.miss_count == 1
        assert system.functions["hog"].process.terminated

    def test_disable(self):
        system, watchdog = build_periodic(8 * MS, 5 * MS)
        watchdog.disable()
        system.run()
        assert watchdog.miss_count == 0

    def test_bad_deadline(self):
        system = System("t")
        with pytest.raises(RTOSError):
            DeadlineWatchdog(system.sim, "x", 0)

    def test_works_without_recorder(self):
        """Observers see records even with no recorder attached."""
        system, watchdog = build_periodic(8 * MS, 5 * MS)
        assert system.sim._emit == watchdog._observe
        system.run()
        assert watchdog.miss_count == 4


class TestOneJobWindow:
    """The watchdog and the post-hoc response times share one job rule."""

    @pytest.mark.parametrize(
        "variant", ("plain", "preemption_mask", "inheritance", "ceiling"))
    def test_fig7_activations_match_measured_responses(self, variant):
        from _scenarios import build_fig7_system

        from repro.trace.measurements import response_times

        system, recorder, _done = build_fig7_system(variant)
        watchdogs = {task: DeadlineWatchdog(system.sim, task, 1000 * MS)
                     for task in ("Low", "High", "Mid")}
        system.run()
        for task, watchdog in watchdogs.items():
            assert watchdog.miss_count == 0
            assert watchdog.activation_count == len(
                response_times(recorder, task)), task
        # Today a mutex wait closes a job window, so High's blocked lock
        # opens a third window (without blocking High has two).
        blocked = variant in ("plain", "inheritance")
        assert watchdogs["High"].activation_count == (3 if blocked else 2)

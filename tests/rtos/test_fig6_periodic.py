"""The §5 system run periodically: every cycle repeats the measurements.

The paper's Figure 6 shows one clock period of a repeating system; this
suite runs many periods and checks that the 15us reaction and the
overhead patterns recur every single cycle -- no drift, no state leakage
between cycles.
"""

import pytest

from repro.kernel.time import US
from repro.mcse import System
from repro.trace import TraceRecorder, reaction_latencies

PERIOD = 400 * US
CYCLES = 6


def build_periodic_fig6(engine="procedural"):
    system = System("fig6p")
    clk = system.event("Clk", policy="counter")
    ev1 = system.event("Event_1", policy="boolean")
    cpu = system.processor(
        "Processor", engine=engine,
        scheduling_duration=5 * US,
        context_load_duration=5 * US,
        context_save_duration=5 * US,
    )

    def f1(fn):
        for _ in range(CYCLES):
            yield from fn.wait(clk)
            yield from fn.execute(20 * US)
            yield from fn.signal(ev1)
            yield from fn.execute(10 * US)

    def f2(fn):
        for _ in range(CYCLES):
            yield from fn.wait(ev1)
            yield from fn.execute(30 * US)

    def f3(fn):
        for _ in range(CYCLES):
            yield from fn.execute(200 * US)
            yield from fn.delay(50 * US)

    def clock(fn):
        for _ in range(CYCLES):
            yield from fn.delay(PERIOD)
            yield from fn.signal(clk)

    cpu.map(system.function("Function_1", f1, priority=5))
    cpu.map(system.function("Function_2", f2, priority=3))
    cpu.map(system.function("Function_3", f3, priority=2))
    system.function("Clock", clock)
    return system


class TestPeriodicFig6:
    def test_reaction_constant_across_cycles(self):
        system = build_periodic_fig6()
        recorder = TraceRecorder(system.sim)
        system.run()
        latencies = reaction_latencies(recorder, "Clk", "Function_1")
        assert len(latencies) == CYCLES
        # every cycle: save+sched+load = 15us when F3 is running, or
        # sched+load = 10us if the clock finds the CPU idle
        assert all(lat in (10 * US, 15 * US) for lat in latencies)
        # the canonical preemption case occurs at least once
        assert 15 * US in latencies

    def test_no_drift_in_task_budgets(self):
        system = build_periodic_fig6()
        system.run()
        assert system.functions["Function_1"].task.cpu_time == CYCLES * 30 * US
        assert system.functions["Function_2"].task.cpu_time == CYCLES * 30 * US
        assert system.functions["Function_3"].task.cpu_time == CYCLES * 200 * US

    def test_engines_identical_over_many_cycles(self):
        from repro.trace import diff_traces, format_diff

        def run(engine):
            system = build_periodic_fig6(engine)
            recorder = TraceRecorder(system.sim)
            system.run()
            return recorder

        divergences = diff_traces(run("procedural"), run("threaded"))
        assert divergences == [], format_diff(divergences)

    def test_event_counter_never_accumulates(self):
        """F1 keeps up with the clock: no unconsumed Clk tokens remain."""
        system = build_periodic_fig6()
        system.run()
        assert system.relations["Clk"].pending() == 0
        assert not system.relations["Event_1"].flag

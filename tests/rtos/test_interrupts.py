"""Tests for hardware interrupt sources."""

import pytest

from repro.kernel import Clock
from repro.kernel.time import US
from repro.mcse import System
from repro.rtos import EventInterrupt, PeriodicInterrupt
from repro.trace.recorder import TraceRecorder


class TestPeriodicInterrupt:
    def test_fires_every_period(self, sim):
        fires = []
        PeriodicInterrupt(
            sim, "timer", period=10 * US, handler=lambda: fires.append(sim.now)
        )
        sim.run(35 * US)
        assert fires == [10 * US, 20 * US, 30 * US]

    def test_immediate_first(self, sim):
        fires = []
        PeriodicInterrupt(
            sim, "timer", period=10 * US, immediate_first=True,
            handler=lambda: fires.append(sim.now),
        )
        sim.run(15 * US)
        assert fires == [0, 10 * US]

    def test_max_fires(self, sim):
        irq = PeriodicInterrupt(
            sim, "timer", period=1 * US, max_fires=3, handler=lambda: None
        )
        sim.run(100 * US)
        assert irq.fire_count == 3

    def test_stop(self, sim):
        irq = PeriodicInterrupt(sim, "timer", period=1 * US, handler=lambda: None)
        sim.run(2500_000_000)  # 2.5us
        irq.stop()
        sim.run(100 * US)
        assert irq.fire_count == 2

    def test_invalid_period(self, sim):
        with pytest.raises(ValueError):
            PeriodicInterrupt(sim, "t", period=0, handler=lambda: None)

    def test_records_interrupts(self, sim):
        recorder = TraceRecorder(sim)
        PeriodicInterrupt(
            sim, "timer", period=10 * US, handler=lambda: None,
            processor_name="cpu0",
        )
        sim.run(25 * US)
        records = recorder.interrupts()
        assert len(records) == 2
        assert records[0].processor == "cpu0"

    def test_wakes_rtos_task_with_exact_preemption(self):
        """A timer interrupt preempts the running task at the exact tick."""
        system = System("t")
        cpu = system.processor("cpu")
        ev = system.event("tick", policy="counter")
        log = []

        def handler_task(fn):
            while True:
                yield from fn.wait(ev)
                log.append(system.now)
                yield from fn.execute(1 * US)

        def background(fn):
            yield from fn.execute(100 * US)

        cpu.map(system.function("handler", handler_task, priority=9))
        cpu.map(system.function("bg", background, priority=1))
        PeriodicInterrupt(
            system.sim, "timer", period=30 * US, handler=ev.signal
        )
        system.run(100 * US)
        assert log == [30 * US, 60 * US, 90 * US]


class TestAttachIsr:
    def test_isr_cost_delays_handler_wakeup(self):
        """The handler task wakes only after the ISR's CPU time."""
        from repro.rtos import attach_isr

        system = System("isr")
        cpu = system.processor("cpu")
        handler_ready = system.event("handler_ready", policy="counter")
        log = []

        def handler(fn):
            while True:
                yield from fn.wait(handler_ready)
                log.append(system.now)
                yield from fn.execute(1 * US)

        cpu.map(system.function("handler", handler, priority=5))

        def background(fn):
            yield from fn.execute(200 * US)

        cpu.map(system.function("bg", background, priority=1))
        attach_isr(
            system, cpu, "timer_irq",
            period=50 * US, isr_duration=7 * US,
            action=handler_ready.signal, max_fires=3,
        )
        system.run(250 * US)
        # interrupt at 50us -> ISR runs 50..57 (preempting bg exactly at
        # 50us) -> handler woken at 57us
        assert log == [57 * US, 107 * US, 157 * US]

    def test_isr_preempts_at_exact_interrupt_time(self):
        from repro.rtos import attach_isr
        from repro.trace import TraceRecorder
        from repro.trace import state_intervals
        from repro.trace.records import TaskState

        system = System("isr2")
        recorder = TraceRecorder(system.sim)
        cpu = system.processor("cpu")

        def background(fn):
            yield from fn.execute(100 * US)

        cpu.map(system.function("bg", background, priority=1))
        attach_isr(system, cpu, "irq", period=30 * US,
                   isr_duration=5 * US, max_fires=2)
        system.run(200 * US)
        isr_runs = state_intervals(recorder, "irq.isr",
                                   TaskState.RUNNING, end_time=200 * US)
        # skip the zero-length startup run (the micro-task blocks on its
        # pending event immediately after creation)
        service_runs = [i for i in isr_runs if i.duration > 0]
        assert service_runs[0].start == 30 * US
        assert service_runs[0].end == 35 * US
        # background still receives its exact budget
        assert system.functions["bg"].task.cpu_time == 100 * US


class TestEventInterrupt:
    def test_bound_to_clock_edge(self, sim):
        clock = Clock(sim, "clk", period=20 * US)
        fires = []
        EventInterrupt(
            sim, "irq", event=clock.posedge,
            handler=lambda: fires.append(sim.now),
        )
        sim.run(50 * US)
        assert fires == [0, 20 * US, 40 * US]

    def test_disable_enable(self, sim):
        clock = Clock(sim, "clk", period=10 * US)
        irq = EventInterrupt(sim, "irq", event=clock.posedge, handler=lambda: None)
        sim.run(15 * US)
        irq.disable()
        sim.run(30 * US)
        count_when_disabled = irq.fire_count
        irq.enable()
        sim.run(30 * US)
        assert irq.fire_count > count_when_disabled

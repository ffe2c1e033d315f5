#!/usr/bin/env python3
"""Quickstart: the paper's §5 example, end to end.

Builds the Figure-6 system -- a hardware ``Clock`` plus three software
functions (priorities 5/3/2) on one processor running a priority-based
preemptive RTOS with 5us scheduling / context-load / context-save
durations -- then:

* prints the TimeLine chart (the paper's Figure 6),
* reproduces the paper's measurements: the 15us reaction time (1) and
  the overhead cases (a), (b), (c),
* prints the Figure-8 statistics.

Run:  python examples/quickstart.py
"""

from repro.kernel.time import US, format_time
from repro.mcse import System
from repro.trace import (
    TimelineChart,
    TraceRecorder,
    format_report,
    reaction_latencies,
    relation_stats,
    switch_sequences,
    task_stats_from_functions,
)


def build_system() -> "tuple[System, TraceRecorder]":
    system = System("fig6")
    recorder = TraceRecorder(system.sim)

    # -- relations -------------------------------------------------------
    clk = system.event("Clk", policy="fugitive")       # like sc_event
    event_1 = system.event("Event_1", policy="boolean")

    # -- the processor and its RTOS --------------------------------------
    cpu = system.processor(
        "Processor",
        policy="priority_preemptive",
        scheduling_duration=5 * US,
        context_load_duration=5 * US,
        context_save_duration=5 * US,
    )

    # -- behaviors --------------------------------------------------------
    def function_1(fn):
        yield from fn.wait(clk)            # woken by the hardware clock
        yield from fn.execute(20 * US)
        yield from fn.signal(event_1)      # wakes Function_2 (case (c))
        yield from fn.execute(10 * US)

    def function_2(fn):
        yield from fn.wait(event_1)
        yield from fn.execute(30 * US)

    def function_3(fn):
        yield from fn.execute(200 * US)    # long background computation

    def clock(fn):                          # a hardware task: not mapped
        yield from fn.delay(100 * US)
        yield from fn.signal(clk)

    cpu.map(system.function("Function_1", function_1, priority=5))
    cpu.map(system.function("Function_2", function_2, priority=3))
    cpu.map(system.function("Function_3", function_3, priority=2))
    system.function("Clock", clock)
    return system, recorder


def main() -> None:
    system, recorder = build_system()
    end = system.run()
    print(f"simulation finished at t={format_time(end)}\n")

    chart = TimelineChart.from_recorder(recorder)
    print(chart.render_ascii(width=100))
    print()

    # the paper's measurement (1): Clk -> Function_1 reaction
    latency = reaction_latencies(recorder, "Clk", "Function_1")[0]
    print(f"(1) reaction Clk -> Function_1 running : {format_time(latency)}"
          f"   (paper: 15us)")

    # overhead patterns on the processor row
    for interval, kinds in switch_sequences(recorder, "Processor"):
        label = {
            ("context_save", "scheduling", "context_load"):
                "(b) preemption: save+sched+load",
            ("scheduling", "context_load"):
                "(a) task end: sched+load",
            ("scheduling",):
                "(c) wake without preemption: sched only",
            ("context_save", "scheduling"):
                "block into idle: save+sched",
        }.get(kinds, str(kinds))
        print(f"    overhead window {format_time(interval.start):>7} .. "
              f"{format_time(interval.end):>7} = "
              f"{format_time(interval.duration):>5}  {label}")

    print()
    print(format_report(
        task_stats_from_functions(system.functions.values()),
        relation_stats(system.relations.values()),
        system.processors.values(),
    ))


if __name__ == "__main__":
    main()

"""Figure 6: the TimeLine of the §5 example with its measurements.

Regenerates the paper's chart and asserts the measurements it prints:

* (1) reaction from the ``Clk`` hardware event to Function_1 running =
  **15us** (context-save + scheduling + context-load, 5us each);
* (b) the preemption overhead window is save+sched+load = 15us;
* (c) a wake without preemption (Function_1 signalling lower-priority
  Function_2) costs one scheduling pass = 5us, inline in the caller;
* (a) task end to successor start = sched+load = 10us (no context save
  for a terminated task -- see DESIGN.md for this documented choice).
"""

from _scenarios import build_fig6_system, write_result
from repro.kernel.time import US, format_time
from repro.trace import (
    TimelineChart,
    TraceRecorder,
    reaction_latencies,
    switch_sequences,
)


def run_fig6():
    system, log = build_fig6_system("procedural")
    recorder = TraceRecorder(system.sim)
    system.run()
    return system, recorder, dict(log)


def bench_fig6_simulation(benchmark):
    """Simulate the §5 system (with tracing) and verify every measurement."""
    system, recorder, times = benchmark(run_fig6)

    # (1) the reaction time the paper measures on the chart
    reaction = reaction_latencies(recorder, "Clk", "Function_1")
    assert reaction == [15 * US]

    # overhead patterns (a) / (b) / (c)
    sequences = switch_sequences(recorder, "Processor")
    patterns = {}
    for interval, kinds in sequences:
        patterns.setdefault(kinds, []).append(interval)

    preempt = patterns[("context_save", "scheduling", "context_load")]
    assert any(i.start == times["Clk"] and i.duration == 15 * US
               for i in preempt), "(b) preemption window"

    sched_only = patterns[("scheduling",)]
    assert any(i.start == times["F1-signal"] and i.duration == 5 * US
               for i in sched_only), "(c) no-preemption wake"

    end_start = patterns[("scheduling", "context_load")]
    assert any(i.start == times["F1-end"] and i.duration == 10 * US
               for i in end_start), "(a) task end to start"

    # time-accurate preemption: Function_3 received exactly 200us
    f3 = system.functions["Function_3"]
    assert f3.task.cpu_time == 200 * US

    chart = TimelineChart.from_recorder(recorder)
    lines = [
        "Figure 6 -- TimeLine of the §5 example "
        "(priorities 5/3/2, 5us overheads)",
        "",
        chart.render_ascii(width=100),
        "",
        "measurements (paper values in parentheses):",
        f"  (1) Clk -> Function_1 reaction : "
        f"{format_time(reaction[0])}  (15us)",
        "  (b) preemption overhead        : 15us  (save+sched+load)",
        "  (c) wake without preemption    : 5us   (scheduling only)",
        "  (a) task end -> next start     : 10us  (sched+load)",
        "",
        "event log:",
    ]
    for tag in ("Clk", "F1-start", "F1-signal", "F1-end", "F2-start",
                "F2-end", "F3-end"):
        lines.append(f"  {tag:10} {format_time(times[tag])}")
    write_result("fig6_timeline.txt", "\n".join(lines))
    benchmark.extra_info["reaction_us"] = reaction[0] / US


def bench_fig6_threaded_equivalence(benchmark):
    """Both §4 engines must draw the identical Figure 6."""

    def run_both():
        sys_p, log_p = build_fig6_system("procedural")
        sys_p.run()
        sys_t, log_t = build_fig6_system("threaded")
        sys_t.run()
        return log_p, log_t

    log_p, log_t = benchmark(run_both)
    assert log_p == log_t

#!/usr/bin/env python3
"""Mutual-exclusion blocking and priority inversion (paper Figure 7).

Reproduces the paper's §5 blocking scenario: a low-priority task holds a
shared variable when a high-priority task needs it; a middle-priority
task then runs in between -- the classic priority inversion.  The paper's
remedy is "disabling preemption during access to shared data"; this
example runs the scenario four ways and compares how long the
high-priority task is delayed:

1. plain shared variable (inversion happens),
2. the paper's fix: non-preemptive critical region,
3. priority inheritance,
4. priority ceiling.

Run:  python examples/mutual_exclusion.py
"""

from repro.kernel.time import US, format_time
from repro.mcse import System
from repro.rtos import CeilingSharedVariable, InheritanceSharedVariable
from repro.trace import TimelineChart, TraceRecorder, blocking_intervals


def build(variant: str):
    """The 3-task inversion scenario with the selected remedy."""
    system = System(f"fig7_{variant}")
    recorder = TraceRecorder(system.sim)
    cpu = system.processor(
        "Processor",
        scheduling_duration=2 * US,
        context_load_duration=2 * US,
        context_save_duration=2 * US,
    )
    if variant == "inheritance":
        shared = InheritanceSharedVariable(system.sim, "SharedVar_1")
    elif variant == "ceiling":
        shared = CeilingSharedVariable(system.sim, "SharedVar_1", ceiling=9)
    else:
        shared = system.shared("SharedVar_1")
    mask = variant == "preemption_mask"
    done = {}

    def low(fn):  # Function_3-like: lowest priority, owns the resource
        yield from fn.execute(1 * US)
        yield from fn.lock(shared)      # acquired around t=17us
        if mask:
            cpu.set_preemptive(False)   # the paper's remedy
        yield from fn.execute(40 * US)  # long critical section
        yield from fn.unlock(shared)
        if mask:
            cpu.set_preemptive(True)
        yield from fn.execute(5 * US)

    def high(fn):  # Function_2-like: needs the same resource
        yield from fn.delay(30 * US)    # wakes while Low holds the lock
        yield from fn.lock(shared)      # blocks: "waiting for resource"
        yield from fn.execute(10 * US)
        yield from fn.unlock(shared)
        done["high"] = fn.sim.now

    def mid(fn):  # unrelated middle-priority work causing the inversion
        yield from fn.delay(45 * US)
        yield from fn.execute(60 * US)
        done["mid"] = fn.sim.now

    cpu.map(system.function("Low", low, priority=1))
    cpu.map(system.function("High", high, priority=9))
    cpu.map(system.function("Mid", mid, priority=5))
    if variant in ("plain", "preemption_mask"):
        # The inversion hazard is this example's whole point ("plain"
        # demonstrates it; "preemption_mask" bounds it dynamically, which
        # static analysis cannot see) -- tell `pyrtos-sc lint` so.
        system.lint_suppress = ("RTS111",)
    return system, recorder, done


def main() -> None:
    results = {}
    for variant in ("plain", "preemption_mask", "inheritance", "ceiling"):
        system, recorder, done = build(variant)
        system.run()
        blocked = blocking_intervals(recorder, "High")
        blocked_total = sum(i.duration for i in blocked)
        results[variant] = (blocked_total, done["high"], recorder)
        if variant == "plain":
            print("TimeLine with a plain shared variable "
                  "(note High stuck in 'm' while Mid runs):\n")
            chart = TimelineChart.from_recorder(recorder)
            print(chart.render_ascii(width=100))
            print()

    print(f"{'variant':18} {'High blocked for':>18} {'High finishes at':>18}")
    for variant, (blocked_total, finish, _) in results.items():
        print(f"{variant:18} {format_time(blocked_total):>18} "
              f"{format_time(finish):>18}")

    plain = results["plain"][0]
    for variant in ("preemption_mask", "inheritance", "ceiling"):
        assert results[variant][0] < plain, variant
    print("\nall three remedies bound the blocking below the plain case;")
    print("the paper's preemption-mask remedy is the simplest, the ceiling")
    print("protocol gives the tightest bound here.")


if __name__ == "__main__":
    main()

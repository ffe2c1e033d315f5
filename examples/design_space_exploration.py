#!/usr/bin/env python3
"""Design-space exploration of a periodic real-time workload.

The paper's purpose statement: "provide results to help designers in
their design-space exploration and timing-constraints verification as
early as possible".  This example does both on a synthetic periodic task
set:

1. sweeps the RTOS overheads (processor/RTOS choice) and reports when
   deadlines start being missed;
2. compares scheduling policies at high utilization;
3. cross-checks the simulation against analytical response-time
   analysis (RTA);
4. demonstrates automatic timing-constraint verification (the paper's
   stated future work, implemented in :mod:`repro.trace.constraints`).

Run:  python examples/design_space_exploration.py
"""

from repro.analyze import response_time_analysis, total_utilization
from repro.kernel.time import MS, US, format_time
from repro.trace import ConstraintSet, DeadlineConstraint, TraceRecorder
from repro.workloads import build_periodic_system, generate_periodic_taskset

SEED = 7
HYPERPERIODS = 10


def sweep_overheads(tasks) -> None:
    print("1) RTOS-overhead sweep (priority preemptive)")
    print(f"   task-set utilization (no overheads): "
          f"{total_utilization(tasks):.2%}\n")
    print(f"   {'overhead each':>14} {'misses':>7} {'worst response':>15}")
    for overhead_us in (0, 50, 200, 500, 1000, 2000):
        overhead = overhead_us * US
        system, result = build_periodic_system(
            tasks,
            scheduling_duration=overhead,
            context_load_duration=overhead,
            context_save_duration=overhead,
        )
        system.run(200 * MS)
        worst = max(
            (result.worst_response(t.name) or 0) for t in tasks
        )
        print(f"   {format_time(overhead):>14} {result.total_misses():>7} "
              f"{format_time(worst):>15}")
    print()


def compare_policies(tasks) -> None:
    print("2) scheduling-policy comparison (500us overheads)")
    print(f"   {'policy':>22} {'misses':>7} {'preemptions':>12}")
    for policy, kwargs in (
        ("priority_preemptive", {}),
        ("fifo", {}),
        ("round_robin", {"policy_kwargs": {"time_slice": 2 * MS}}),
        ("edf", {"set_deadlines": True}),
    ):
        system, result = build_periodic_system(
            tasks,
            policy=policy,
            scheduling_duration=500 * US,
            context_load_duration=500 * US,
            context_save_duration=500 * US,
            **kwargs,
        )
        system.run(200 * MS)
        cpu = system.processors["cpu"]
        print(f"   {policy:>22} {result.total_misses():>7} "
              f"{cpu.preemption_count:>12}")
    print()


def rta_cross_check(tasks) -> None:
    print("3) simulation vs analytical RTA (zero overheads)")
    analytical = response_time_analysis(tasks)
    system, result = build_periodic_system(tasks)
    system.run(400 * MS)
    print(f"   {'task':>8} {'RTA bound':>12} {'simulated worst':>16}")
    for task in tasks:
        bound = analytical[task.name]
        worst = result.worst_response(task.name)
        marker = "==" if worst == bound else "<="
        print(f"   {task.name:>8} {format_time(bound):>12} "
              f"{format_time(worst):>14} {marker}")
    print()


def verify_constraints(tasks) -> None:
    print("4) automatic timing-constraint verification")
    system, result = build_periodic_system(
        tasks,
        scheduling_duration=200 * US,
        context_load_duration=200 * US,
        context_save_duration=200 * US,
    )
    recorder = TraceRecorder(system.sim)
    constraints = ConstraintSet()
    for task in tasks:
        constraints.add(DeadlineConstraint(task.name, task.period))
    system.run(200 * MS)
    print("   " + constraints.report(recorder).replace("\n", "\n   "))
    print()


def main() -> None:
    tasks = generate_periodic_taskset(
        5, total_utilization=0.65, seed=SEED,
        period_min=5 * MS, period_max=50 * MS,
    )
    print("task set:")
    for task in tasks:
        print(f"   {task.name}: C={format_time(task.wcet)} "
              f"T={format_time(task.period)} prio={task.priority}")
    print()
    sweep_overheads(tasks)
    compare_policies(tasks)
    rta_cross_check(tasks)
    verify_constraints(tasks)


if __name__ == "__main__":
    main()

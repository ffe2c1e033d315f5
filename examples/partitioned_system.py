#!/usr/bin/env python3
"""Time-partitioned scheduling: a custom policy at work (paper §3.1).

The paper's model makes the scheduling policy generic; this example uses
that extension point for something commercial RTOSes ship as a major
feature: ARINC-653-style time partitioning.  A flight-control partition
and a cabin partition share one CPU under a cyclic major frame; a
background task soaks up whatever is left.  The TimeLine shows tasks cut
at exact window boundaries.

Run:  python examples/partitioned_system.py
"""

from repro.kernel.time import MS, format_time
from repro.mcse import System
from repro.rtos import TimePartitionPolicy
from repro.trace import TimelineChart, TraceRecorder

MAJOR_FRAME = [("flight", 5 * MS), ("cabin", 3 * MS)]


def main() -> None:
    system = System("partitioned")
    recorder = TraceRecorder(system.sim)
    policy = TimePartitionPolicy(MAJOR_FRAME)
    cpu = system.processor("cpu", policy=policy)

    def periodic(work, period, jobs):
        def body(fn):
            release = 0
            for _ in range(jobs):
                yield from fn.execute(work)
                release += period
                if system.now < release:
                    yield from fn.delay(release - system.now)

        return body

    def batch(work):
        def body(fn):
            yield from fn.execute(work)

        return body

    flight = system.function(
        "flight_ctl", periodic(3 * MS, 8 * MS, 5), priority=9
    )
    flight.partition = "flight"
    nav = system.function("nav", periodic(1 * MS, 8 * MS, 5), priority=5)
    nav.partition = "flight"
    cabin = system.function(
        "cabin_ui", periodic(2 * MS, 8 * MS, 5), priority=5
    )
    cabin.partition = "cabin"
    background = system.function("maintenance", batch(6 * MS), priority=1)
    # no partition: the maintenance task runs in any window's slack

    for fn in (flight, nav, cabin, background):
        cpu.map(fn)

    system.run(48 * MS)

    chart = TimelineChart.from_recorder(recorder)
    print(chart.render_ascii(width=96))
    print()
    print(f"major frame: {format_time(policy.major_frame)}  "
          f"({', '.join(f'{p}={format_time(d)}' for p, d in MAJOR_FRAME)})")
    print(f"window boundaries crossed: {policy.boundary_count}")
    for fn in (flight, nav, cabin, background):
        print(f"  {fn.name:12} cpu_time={format_time(fn.task.cpu_time)} "
              f"partition={getattr(fn, 'partition', '-')}")

    # isolation check: flight work never ran inside a cabin window
    from repro.trace import state_intervals
    from repro.trace.records import TaskState

    for interval in state_intervals(recorder, "flight_ctl",
                                    TaskState.RUNNING, end_time=48 * MS):
        assert policy.window_at(interval.start) == "flight"
    print("\nisolation verified: flight tasks only ran in flight windows.")


if __name__ == "__main__":
    main()

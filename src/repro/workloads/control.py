"""Closed-loop control workloads: sensor -> controller -> actuator.

The introduction's motivating class of real-time system: periodic
sensors raise events, software controllers compute commands under
deadlines, actuators must fire within a reaction bound.  The generator
builds ``n`` independent control loops sharing one RTOS processor plus
an optional background load task, and returns the matching
:class:`~repro.trace.constraints.ConstraintSet` so the paper's
"automatic verification of timing constraints" future-work feature can
be demonstrated end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..kernel.time import MS, Time, US
from ..mcse.model import System
from ..rtos.interrupts import PeriodicInterrupt
from ..trace.constraints import ConstraintSet, DeadlineConstraint, ReactionConstraint


@dataclass(frozen=True)
class ControlLoop:
    """Parameters of one sensor/controller/actuator loop."""

    name: str
    period: Time
    compute: Time
    deadline: Time
    priority: int


def default_loops(n: int, seed: int = 0) -> List[ControlLoop]:
    """``n`` loops with log-spread periods, deadline = period / 2.

    Priorities are deadline-monotonic (tighter deadline = higher).
    """
    rng = random.Random(seed)
    loops = []
    for index in range(n):
        period = rng.choice([5, 10, 20, 40, 80]) * MS
        compute = round(period * rng.uniform(0.02, 0.10))
        loops.append(
            ControlLoop(
                name=f"loop{index}",
                period=period,
                compute=compute,
                deadline=period // 2,
                priority=0,
            )
        )
    ordered = sorted(loops, key=lambda loop: (loop.deadline, loop.name))
    return [
        ControlLoop(
            name=loop.name, period=loop.period, compute=loop.compute,
            deadline=loop.deadline, priority=len(ordered) - i,
        )
        for i, loop in enumerate(ordered)
    ]


def build_control_system(
    loops: List[ControlLoop],
    *,
    engine: str = "procedural",
    scheduling_duration: Time = 10 * US,
    context_load_duration: Time = 5 * US,
    context_save_duration: Time = 5 * US,
    background_load: Optional[Time] = None,
    duration_periods: int = 20,
) -> Tuple[System, ConstraintSet, Time]:
    """Build the control system; returns (system, constraints, run_time).

    Each loop: a hardware timer interrupt signals a counter event; the
    controller task waits it, computes, and "actuates" (a marker the
    reaction constraint checks).  ``background_load`` optionally adds a
    lowest-priority busy task consuming that much CPU per 100ms.
    """
    system = System("control")
    cpu = system.processor(
        "cpu",
        engine=engine,
        scheduling_duration=scheduling_duration,
        context_load_duration=context_load_duration,
        context_save_duration=context_save_duration,
    )
    constraints = ConstraintSet()
    longest = max(loop.period for loop in loops)
    run_time = longest * duration_periods

    for loop in loops:
        sensor_event = system.event(f"{loop.name}.sample", policy="counter")
        fires = int(run_time // loop.period)

        def controller(fn, loop=loop, sensor_event=sensor_event, fires=fires):
            for _ in range(fires):
                yield from fn.wait(sensor_event)
                yield from fn.execute(loop.compute)

        fn = system.function(loop.name, controller, priority=loop.priority)
        cpu.map(fn)
        PeriodicInterrupt(
            system.sim,
            f"{loop.name}.timer",
            period=loop.period,
            handler=sensor_event.signal,
            processor_name=cpu.name,
            max_fires=fires,
        )
        constraints.add(
            DeadlineConstraint(loop.name, loop.deadline)
        )
        constraints.add(
            ReactionConstraint(
                f"{loop.name}.timer", loop.name, loop.deadline
            )
        )

    if background_load:
        def background(fn):
            chunks = int(run_time // (100 * MS)) + 1
            for _ in range(chunks):
                yield from fn.execute(background_load)
                yield from fn.delay(100 * MS - background_load)

        bg = system.function("background", background, priority=0)
        cpu.map(bg)

    return system, constraints, run_time

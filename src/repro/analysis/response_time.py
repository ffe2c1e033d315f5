"""Analytical response-time analysis (RTA) for fixed-priority task sets.

The classical recurrence (Joseph & Pandya / Audsley) for periodic tasks
under fixed-priority preemptive scheduling::

    R_i = C_i + B_i + sum_{j in hp(i)} ceil(R_i / T_j) * C_j

extended with the RTOS overhead model: every preemption costs two
context switches, so each interfering job adds ``2 * (save + load) +
sched`` on top of its compute time (a standard overhead-aware RTA).

This gives the library an independent analytical cross-check: the
simulated worst-case response times of a synchronous periodic task set
must match the RTA fixed point (tests assert it), and the RTA becomes a
baseline for the benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from ..kernel.time import Time


@dataclass(frozen=True)
class PeriodicTask:
    """An analytical periodic task: compute ``wcet`` every ``period``."""

    name: str
    wcet: Time
    period: Time
    priority: int
    deadline: Optional[Time] = None  # defaults to the period
    blocking: Time = 0  # worst-case lower-priority blocking

    @property
    def effective_deadline(self) -> Time:
        return self.period if self.deadline is None else self.deadline

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


def total_utilization(tasks: List[PeriodicTask]) -> float:
    """Plain processor utilization of the set."""
    return sum(task.utilization for task in tasks)


def liu_layland_bound(n: int) -> float:
    """The Liu & Layland RM schedulability bound ``n (2^{1/n} - 1)``."""
    if n <= 0:
        raise ReproError("need at least one task")
    return n * (2 ** (1 / n) - 1)


def rate_monotonic_priorities(tasks: List[PeriodicTask]) -> List[PeriodicTask]:
    """Reassign priorities rate-monotonically (shorter period = higher)."""
    ordered = sorted(tasks, key=lambda t: (t.period, t.name))
    return [
        PeriodicTask(
            name=t.name,
            wcet=t.wcet,
            period=t.period,
            priority=len(ordered) - idx,
            deadline=t.deadline,
            blocking=t.blocking,
        )
        for idx, t in enumerate(ordered)
    ]


def response_time_analysis(
    tasks: List[PeriodicTask],
    *,
    context_switch: Time = 0,
    scheduling: Time = 0,
    max_iterations: int = 10_000,
) -> Dict[str, Optional[Time]]:
    """Worst-case response time per task, or ``None`` when unbounded.

    ``context_switch`` is the save+load cost of one switch; every job of
    a higher-priority task inflicts one preemption (two switches) plus a
    scheduling pass on the task under analysis, and the task's own
    release costs one switch + scheduling pass.
    """
    loads = [(t.priority, t.period, t.wcet + 2 * context_switch + scheduling)
             for t in tasks]
    results: Dict[str, Optional[Time]] = {}
    for task in tasks:
        higher = [(period, load) for priority, period, load in loads
                  if priority > task.priority]
        results[task.name] = _task_response(
            task.wcet + task.blocking + context_switch + scheduling,
            higher, task.effective_deadline * 1000, max_iterations)
    return results


def _task_response(own_cost: Time, higher: List[Tuple[Time, Time]],
                   limit: Time, max_iterations: int) -> Optional[Time]:
    """The recurrence for one task, or ``None`` when unbounded.

    ``higher`` holds one ``(period, wcet + 2 * cs + sched)`` pair per
    higher-priority task; ``limit`` is the divergence cut-off.
    """
    response = own_cost
    for _ in range(max_iterations):
        interference = 0
        for period, load in higher:
            # exact integer ceiling: a float quotient rounds a response
            # just past a job boundary down once it exceeds 2**53 fs
            interference += -(-response // period) * load
        new_response = own_cost + interference
        if new_response == response:
            return response
        if new_response > limit:
            return None  # hopelessly divergent
        response = new_response
    return None


def is_schedulable(
    tasks: List[PeriodicTask], **kwargs
) -> bool:
    """Whether every task meets its deadline per the RTA."""
    results = response_time_analysis(tasks, **kwargs)
    for task in tasks:
        response = results[task.name]
        if response is None or response > task.effective_deadline:
            return False
    return True


def breakdown_utilization(
    base_tasks: List[PeriodicTask],
    *,
    context_switch: Time = 0,
    scheduling: Time = 0,
    tolerance: float = 0.005,
) -> float:
    """Binary-search the utilization scale at which the set stops being
    schedulable (a standard metric for overhead-sensitivity sweeps)."""

    def scaled(factor: float) -> List[PeriodicTask]:
        return [
            PeriodicTask(
                name=t.name,
                wcet=max(1, round(t.wcet * factor)),
                period=t.period,
                priority=t.priority,
                deadline=t.deadline,
                blocking=t.blocking,
            )
            for t in base_tasks
        ]

    def feasible(factor: float) -> bool:
        return is_schedulable(
            scaled(factor), context_switch=context_switch,
            scheduling=scheduling,
        )

    # grow the bracket until it contains the breakdown point (a set with
    # low base utilization may be schedulable well beyond 2x)
    low, high = 0.0, 2.0
    while feasible(high):
        low, high = high, high * 2
        if high > 1024:  # pragma: no cover - degenerate zero-load sets
            return high * total_utilization(base_tasks)
    while high - low > tolerance:
        mid = (low + high) / 2
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low * total_utilization(base_tasks)

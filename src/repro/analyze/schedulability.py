"""Schedulability checks over a constructed system (no simulation).

The model linter needs a *periodic profile* -- (WCET, period, optional
deadline) -- per task to run the classical feasibility tests.  Profiles
come from two sources, in priority order:

1. explicit annotations on the function: ``fn.wcet``/``fn.period``
   (optional ``fn.deadline``), set directly in Python models, through
   the ``"wcet"``/``"period"``/``"deadline"`` keys of a declarative
   spec, or automatically by
   :func:`repro.workloads.synthetic.build_periodic_system`;
2. the function's declarative script: an infinite top-level loop whose
   body mixes ``execute`` and ``delay`` ops and never blocks on a
   relation is read as a periodic task with WCET = sum of executes and
   period = sum of executes + delays.

Tasks without a profile are simply skipped -- the utilization and
response-time rules only ever claim what they can prove.

The checks themselves reuse :mod:`repro.analyze.response_time` (the
same overhead-aware RTA the simulator is validated against), with the
processor's :class:`~repro.rtos.overheads.Overheads` resolved against
the live pre-simulation processor state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..kernel.time import format_time
from ..rtos.overheads import formula_arity_error
from .diagnostics import Report
from .response_time import PeriodicTask, liu_layland_bound, total_utilization

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from .context import LintContext


def script_profile(fn: Any) -> Optional[Tuple[int, int]]:
    """(wcet, period) read from a declarative script, or ``None``.

    Recognizes the canonical periodic shape: the function body is a
    single infinite ``loop`` whose body contains only ``execute`` and
    ``delay`` ops (any blocking op makes the period data-dependent, so
    the profile is refused).
    """
    ops = getattr(fn, "script_ops", None)
    if not ops or len(ops) != 1:
        return None
    name, args = ops[0]
    if name != "loop" or args[0] is not None:
        return None
    wcet = 0
    period = 0
    for op_name, op_args in args[1]:
        if op_name == "execute":
            cost = op_args[0]
            if isinstance(cost, tuple):
                cost = cost[1]  # interval: the upper bound is the WCET
            wcet += cost
            period += cost
        elif op_name == "delay":
            period += op_args[0]
        else:
            return None  # blocking/nested op: not a plain periodic task
    if wcet <= 0 or period <= 0:
        return None
    return wcet, period


def periodic_profile(task: Any) -> Optional[PeriodicTask]:
    """The analytical profile of one mapped RTOS task, or ``None``."""
    fn = task.function
    wcet = getattr(fn, "wcet", None)
    period = getattr(fn, "period", None)
    if wcet is None or period is None:
        derived = script_profile(fn)
        if derived is None:
            return None
        wcet, period = derived
    if not isinstance(wcet, int) or not isinstance(period, int):
        return None
    if wcet <= 0 or period <= 0:
        return None
    # One scaling helper shared with the simulator (ProcessorBase
    # .scale_duration), so heterogeneous-speed analysis can never drift
    # from what the execute path actually charges.
    scale = getattr(task.processor, "scale_duration", None)
    if scale is not None:
        wcet = scale(wcet)
    return PeriodicTask(
        name=task.name,
        wcet=wcet,
        period=period,
        priority=task.base_priority,
        deadline=getattr(fn, "deadline", None),
    )


#: ``(costs, failures)`` of one overhead probe: ``(context_switch,
#: scheduling)`` or ``None`` when a formula failed, and one
#: ``(component, message)`` per failed formula in component order.
OverheadProbe = Tuple[Optional[Tuple[int, int]], List[Tuple[str, str]]]


def probe_overheads(processor: Any) -> OverheadProbe:
    """Evaluate each overhead formula once, pre-simulation.

    Formula overheads are evaluated against the live processor (ready
    queue empty, t=0).  A formula that cannot take the processor, raises
    or returns an invalid duration is a failure (RTS120 reports it) and
    leaves no costs for the RTA rules.
    """
    overheads = processor.overheads
    values: Dict[str, int] = {}
    failures: List[Tuple[str, str]] = []
    for component in ("scheduling", "context_load", "context_save"):
        spec = getattr(overheads, f"_{component}", None)
        if callable(spec):
            # Same arity contract the Overheads constructor and the
            # verifier's invariants enforce -- one shared helper so the
            # probe can never disagree with the runtime.
            arity_error = formula_arity_error(spec, "processor")
            if arity_error is not None:
                failures.append((component,
                                 f"overhead formula {arity_error}"))
                continue
        try:
            values[component] = getattr(overheads, component)(processor)
        except Exception as exc:
            failures.append((
                component,
                f"overhead formula failed pre-simulation probe: {exc}"))
    if failures:
        return None, failures
    return ((values["context_load"] + values["context_save"],
             values["scheduling"]), failures)


def check_schedulability(report: Report, context: LintContext,
                         processor: Any, *, location: str) -> None:
    """Run utilization and RTA rules for one processor's periodic tasks."""
    from .model import RTS103, RTS104, RTS105  # circular-import guard

    profiles = context.profiles(processor)
    if not profiles:
        return

    costs = context.costs(processor)
    if costs is None:
        return  # RTS120 already reported the broken formula
    context_switch, scheduling = costs

    # Utilization including the per-job RTOS cost (one release = one
    # scheduling pass, each job suffers up to one preemption = two
    # switches; matches the overhead-aware RTA's interference model).
    loaded = sum(
        (t.wcet + 2 * context_switch + scheduling) / t.period
        for t in profiles
    )
    plain = total_utilization(profiles)
    if loaded > 1.0:
        report.add(
            RTS103,
            report.ERROR,
            location,
            f"periodic load {loaded:.3f} exceeds the processor capacity "
            f"(task utilization {plain:.3f} + RTOS overheads); the set is "
            "unschedulable under any policy",
            hint="reduce WCETs, lengthen periods, or move tasks to "
                 "another processor",
        )
        return  # RTA would only restate the same impossibility

    policy_name = getattr(processor.policy, "name", "")
    if policy_name in ("priority_preemptive", "priority_round_robin"):
        bound = liu_layland_bound(len(profiles))
        if loaded > bound:
            report.add(
                RTS104,
                report.WARNING,
                location,
                f"periodic load {loaded:.3f} exceeds the Liu & Layland "
                f"bound {bound:.3f} for {len(profiles)} task(s); "
                "rate-monotonic feasibility is not guaranteed "
                "(exact response-time analysis follows)",
                hint="check the RTA results below; a load <= "
                     f"{bound:.3f} is sufficient (not necessary)",
            )
        responses = context.zero_blocking_rta(processor)
        for profile in profiles:
            response = responses[profile.name]
            deadline = profile.effective_deadline
            if response is None:
                report.add(
                    RTS105,
                    report.ERROR,
                    f"{location}/{profile.name}",
                    "response-time analysis diverges: the task can be "
                    "delayed without bound by higher-priority work",
                    hint="raise the task's priority or shed "
                         "higher-priority load",
                )
            elif response > deadline:
                report.add(
                    RTS105,
                    report.ERROR,
                    f"{location}/{profile.name}",
                    f"worst-case response time {format_time(response)} "
                    f"exceeds the deadline {format_time(deadline)}",
                    hint="raise the task's priority, shorten its WCET, "
                         "or relax the deadline",
                )

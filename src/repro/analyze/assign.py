"""Priority-assignment analysis: Audsley's OPA over blocking-aware RTA.

Audsley's optimal priority assignment (OPA) fills priority levels from
the bottom up: a task may take the lowest unfilled level iff it meets
its deadline with every still-unassigned task interfering from above.
If some task fits at every step the resulting assignment is feasible;
if at some level no candidate fits, *no* fixed-priority assignment is
feasible (the test is exact for the RTA used here).

Blocking terms are recomputed per candidate assignment through
:class:`repro.analyze.blocking.BlockingModel` -- which tasks count as
lower priority (and hence can block) changes with the ordering, so a
static blocking table would make the search unsound.

Rule:

=========  ================================================================
RTS182     priority assignment infeasible / non-optimal per Audsley's OPA
=========  ================================================================

RTS182 only fires when the *current* assignment fails the
blocking-aware RTA: WARNING with the feasible reassignment when OPA
finds one (machine-applicable via ``pyrtos-sc lint --fix``), ERROR when
no assignment exists and every blocking interval is exact (WARNING
otherwise).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from .blocking import (
    BlockingModel,
    _analysis_domain,
    _with_blocking,
)
from .diagnostics import Report, rule
from .response_time import PeriodicTask, _task_response

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from .context import LintContext

RTS182 = rule(
    "RTS182", "priority assignment infeasible per Audsley's OPA",
    explain="The configured priorities fail the blocking-aware "
            "response-time analysis, so the assignment -- not just one "
            "task -- is in question. Audsley's optimal priority assignment "
            "(bottom-up level filling, blocking terms recomputed per "
            "candidate ordering) either finds a feasible permutation of "
            "the existing priority values (reported in the finding and "
            "applicable via `pyrtos-sc lint --fix`) or proves that no "
            "fixed-priority assignment meets the deadlines. WARNING with "
            "the reassignment when one exists; ERROR when none does and "
            "every blocking interval is exact.",
)


def _fits(profiles: List[PeriodicTask], model: BlockingModel,
          priorities: Mapping[str, int], name: str,
          loads: Mapping[str, Tuple[int, int]], context_switch: int,
          scheduling: int) -> bool:
    """Whether task ``name`` meets its deadline at ``priorities``.

    Only the candidate's own response is read, so only its blocking
    term is charged; higher-priority tasks interfere through their
    hoisted ``(period, wcet + 2 * cs + sched)`` loads alone.
    """
    mine = priorities[name]
    profile = next(p for p in profiles if p.name == name)
    charged = _with_blocking(profile, model.blocking(name, priorities))
    deadline = charged.effective_deadline
    response = _task_response(
        charged.wcet + charged.blocking + context_switch + scheduling,
        [loads[p.name] for p in profiles if priorities[p.name] > mine],
        deadline * 1000, 10_000)
    return response is not None and response <= deadline


def _blocking_exact(profiles: List[PeriodicTask], model: BlockingModel,
                    priorities: Mapping[str, int]) -> bool:
    return all(model.blocking(p.name, priorities).exact for p in profiles)


def opa_assignment(
    profiles: List[PeriodicTask], model: BlockingModel,
    base_priorities: Mapping[str, int], context_switch: int,
    scheduling: int,
) -> Optional[Dict[str, int]]:
    """A feasible priority map per Audsley's OPA, or ``None``.

    The candidate assignment permutes the *existing* priority values of
    the profiled tasks (so the spec's value range is preserved); tasks
    without a profile keep their configured priorities throughout.
    """
    names = [p.name for p in profiles]
    loads = {p.name: (p.period, p.wcet + 2 * context_switch + scheduling)
             for p in profiles}
    values = sorted(base_priorities[name] for name in names)
    if len(set(values)) != len(values):
        # duplicated configured values cannot express a strict ordering
        values = list(range(1, len(names) + 1))
    order: List[str] = []  # lowest priority first
    unassigned = set(names)
    while unassigned:
        level = len(order)
        placed = None
        for name in sorted(unassigned):
            candidate = dict(base_priorities)
            for index, assigned in enumerate(order):
                candidate[assigned] = values[index]
            candidate[name] = values[level]
            # still-unassigned tasks all interfere from above
            ceiling_values = values[level + 1:]
            for index, other in enumerate(sorted(unassigned - {name})):
                candidate[other] = ceiling_values[index]
            if _fits(profiles, model, candidate, name, loads,
                     context_switch, scheduling):
                placed = name
                break
        if placed is None:
            return None
        order.append(placed)
        unassigned.remove(placed)
    assignment = dict(base_priorities)
    for index, name in enumerate(order):
        assignment[name] = values[index]
    return assignment


def check_assignment(report: Report, context: LintContext) -> None:
    """RTS182 for every partitioned-or-standalone priority processor.

    Every reassignment found is also kept on
    ``context.priority_changes`` for the fix engine.
    """
    for processor in context.system.processors.values():
        if not _analysis_domain(processor):
            continue
        if getattr(processor.policy, "name", "") != "priority_preemptive":
            continue
        _check_processor(report, context, processor)


def _check_processor(report: Report, context: LintContext,
                     processor: Any) -> None:
    profiles = context.profiles(processor)
    if not profiles:
        return
    costs = context.costs(processor)
    if costs is None:
        return  # RTS120 already reported the broken formula
    context_switch, scheduling = costs
    model = context.model
    assert model is not None
    current = dict(model.priorities)
    if any(p.name not in current for p in profiles):
        return  # RTS102 already reported the non-integer priority
    # the configured priorities are the profiles' own, so this is the
    # charged RTA RTS180 already ran
    _, responses = context.charged_rta(processor)
    for profile in profiles:
        response = responses[profile.name]
        if response is None or response > profile.effective_deadline:
            break
    else:
        return  # every deadline is met as configured
    location = f"processor {processor.name}"
    assignment = opa_assignment(profiles, model, current, context_switch,
                                scheduling)
    if assignment is not None:
        changes = _changes(current, assignment, profiles)
        if not changes:
            # OPA reproduces the configured priorities: the set itself
            # is infeasible at this ordering too, but that contradicts
            # the failed current check only through rounding of the
            # search order -- report nothing rather than a non-fix
            return
        context.priority_changes.update(changes)
        change_text = ", ".join(
            f"{name}: {current[name]} -> {assignment[name]}"
            for name, _ in changes
        )
        report.add(
            RTS182,
            report.WARNING,
            location,
            "the configured priorities fail the blocking-aware "
            "response-time analysis, but Audsley's OPA finds a feasible "
            f"reassignment: {change_text}",
            hint="apply the reassignment (`pyrtos-sc lint --fix`), or "
                 "rebalance the task set",
        )
        return
    severity = (
        report.ERROR
        if _blocking_exact(profiles, model, current)
        else report.WARNING
    )
    report.add(
        RTS182,
        severity,
        location,
        "no fixed-priority assignment meets the deadlines under the "
        "blocking-aware response-time analysis (Audsley's OPA exhausted "
        "every ordering)",
        hint="shorten critical sections or WCETs, relax deadlines, or "
             "move tasks to another processor",
    )


def _changes(
    current: Mapping[str, int], assignment: Mapping[str, int],
    profiles: List[PeriodicTask],
) -> List[Tuple[str, int]]:
    changes = []
    for profile in sorted(profiles, key=lambda p: p.name):
        if assignment[profile.name] != current[profile.name]:
            changes.append((profile.name, assignment[profile.name]))
    return changes


def suggest_priorities(system: Any) -> Dict[str, int]:
    """Feasible priority changes per OPA, for the fix engine.

    Returns ``{task: new_priority}`` for every task whose priority the
    reassignment changes, across all processors where the current
    assignment fails and OPA succeeds.  Empty when nothing to fix.
    """
    from .context import LintContext

    context = LintContext(system)
    check_assignment(Report(), context)
    return context.priority_changes


__all__ = [
    "check_assignment",
    "opa_assignment",
    "suggest_priorities",
]

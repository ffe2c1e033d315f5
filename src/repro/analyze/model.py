"""The model linter: static rules over a constructed system.

``analyze_system(system)`` walks the processor/task/relation graph of a
built (but not yet run) model and reports structured diagnostics in
milliseconds -- the point is to catch RTOS-level design mistakes before
a possibly long simulation, or before a million-run campaign amplifies
them.

Rule catalogue (see ``docs/analysis.md`` for the full reference):

=========  ================================================================
RTS101     duplicate priorities under a strict priority policy
RTS102     invalid (non-integer) task priority
RTS103     periodic load exceeds processor capacity (unschedulable)
RTS104     load above the Liu & Layland RM bound (feasibility not implied)
RTS105     RTA worst-case response time exceeds a deadline
RTS110     potential deadlock cycle in the lock acquisition graph
RTS111     priority-inversion hazard on a plain shared variable
RTS112     priority-ceiling below the priority of a user task
RTS120     overhead formula fails or returns an invalid duration
RTS130     task can never become ready (waits on a never-signaled event)
RTS140     partition window cannot fit its tasks' periodic demand
RTS141     task's partition label matches no window (never eligible)
=========  ================================================================

The RTS15x multicore-domain rules live in :mod:`repro.analyze.multicore`,
the RTS16x behavior-flow rules (path-sensitive lock-set analysis,
static WCET cross-checks, static races, starvation) in
:mod:`repro.analyze.flow`, and the RTS18x blocking-aware schedulability
rules (critical-section blocking terms, PCP ceilings, Audsley priority
assignment) in :mod:`repro.analyze.blocking` /
:mod:`repro.analyze.assign`; all report through the same pipeline here.

Suppression: pass ``suppress={"RTS111", ...}`` or set a
``lint_suppress`` iterable of rule ids on the system, a function, a
relation or a processor (object-level suppressions apply to the whole
report).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..mcse.shared import SharedVariable
from ..rtos.partitions import TimePartitionPolicy
from ..rtos.policies import PriorityPreemptivePolicy, PriorityRoundRobinPolicy
from ..rtos.services import CeilingSharedVariable, InheritanceSharedVariable
from .diagnostics import (
    Report,
    merge_suppressions,
    object_suppressions,
    rule,
)
from .assign import check_assignment
from .blocking import check_blocking
from .context import LintContext
from .flow import TaskFlow, check_flow
from .lockgraph import find_cycles
from .personality import check_personality
from .multicore import check_domain
from .schedulability import check_schedulability

RTS101 = rule("RTS101", "duplicate priorities under a strict priority policy")
RTS102 = rule("RTS102", "invalid (non-integer) task priority")
RTS103 = rule("RTS103", "periodic load exceeds processor capacity")
RTS104 = rule("RTS104", "load above the Liu & Layland bound")
RTS105 = rule("RTS105", "RTA response time exceeds a deadline")
RTS110 = rule("RTS110", "potential deadlock cycle among shared variables")
RTS111 = rule("RTS111", "priority-inversion hazard on a plain shared variable")
RTS112 = rule("RTS112", "priority ceiling below a user task's priority")
RTS120 = rule("RTS120", "overhead formula fails or returns invalid duration")
RTS130 = rule("RTS130", "task can never become ready")
RTS140 = rule("RTS140", "partition window cannot fit its tasks' demand")
RTS141 = rule("RTS141", "partition label matches no window")
RTS150 = rule("RTS150", "domain load exceeds total multicore capacity")
RTS151 = rule("RTS151", "load above the global EDF/RM multicore bound")
RTS152 = rule("RTS152", "affinity mask excludes every cluster core")
RTS153 = rule("RTS153", "no partitioned assignment found by first-fit")


def analyze_system(system: Any, *, suppress: Iterable[str] = ()) -> Report:
    """Lint a built :class:`~repro.mcse.model.System`; returns a Report."""
    return _lint(system, suppress)[0]


def _lint(system: Any,
          suppress: Iterable[str]) -> Tuple[Report, LintContext]:
    """The report of one lint, and the context its rules shared."""
    suppressions = merge_suppressions(
        suppress,
        object_suppressions(system),
        *(object_suppressions(obj) for obj in system.functions.values()),
        *(object_suppressions(obj) for obj in system.relations.values()),
        *(object_suppressions(obj) for obj in system.processors.values()),
        *(object_suppressions(obj)
          for obj in getattr(system, "domains", {}).values()),
    )
    report = Report(suppress=suppressions)
    context = LintContext(system)
    for processor in system.processors.values():
        _check_priorities(report, processor)
        _check_overheads(report, context, processor)
        # members of a global/clustered domain pool their capacity, so
        # the per-core rules (which assume tasks are pinned to their
        # home core) would mis-report there; the RTS15x rules take over
        domain = getattr(processor, "domain", None)
        if domain is None or domain.kind == "partitioned":
            check_schedulability(
                report, context, processor, location=_cpu_loc(processor)
            )
        _check_partitions(report, context, processor)
    for domain in getattr(system, "domains", {}).values():
        check_domain(report, context, domain)
    _check_locks(report, system, context.flows)
    _check_reachability(report, system, context.flows)
    check_flow(report, system, context.flows)
    check_blocking(report, context)
    check_assignment(report, context)
    check_personality(report, system)
    return report, context


def analyze_processors(processors: Iterable[Any], *,
                       suppress: Iterable[str] = ()) -> Report:
    """Lint bare processors (no :class:`System` facade around them)."""
    processors = list(processors)
    suppressions = merge_suppressions(
        suppress, *(object_suppressions(cpu) for cpu in processors)
    )
    report = Report(suppress=suppressions)
    context = LintContext()
    for processor in processors:
        _check_priorities(report, processor)
        _check_overheads(report, context, processor)
        check_schedulability(report, context, processor,
                             location=_cpu_loc(processor))
        _check_partitions(report, context, processor)
    return report


def _cpu_loc(processor: Any) -> str:
    return f"processor {processor.name}"


# ---------------------------------------------------------------------------
# Priorities (RTS101 / RTS102)
# ---------------------------------------------------------------------------
def _check_priorities(report: Report, processor: Any) -> None:
    policy = processor.policy
    strict_priority = (
        isinstance(policy, PriorityPreemptivePolicy)
        and not isinstance(policy, PriorityRoundRobinPolicy)
    ) or isinstance(policy, TimePartitionPolicy)
    groups: Dict[object, List[str]] = {}
    for task in processor.tasks:
        priority = task.base_priority
        if isinstance(priority, bool) or not isinstance(priority, int):
            report.add(
                RTS102,
                report.ERROR,
                f"{_cpu_loc(processor)}/{task.name}",
                f"priority {priority!r} is not an integer",
                hint="priorities are plain ints; larger = more urgent",
            )
            continue
        if strict_priority:
            if isinstance(policy, TimePartitionPolicy):
                key = (getattr(task.function, "partition", None), priority)
            else:
                key = priority
            groups.setdefault(key, []).append(task.name)
    for key, names in sorted(groups.items(), key=lambda kv: str(kv[0])):
        if len(names) < 2:
            continue
        priority = key[1] if isinstance(key, tuple) else key
        report.add(
            RTS101,
            report.WARNING,
            f"{_cpu_loc(processor)}",
            f"tasks {', '.join(sorted(names))} share priority {priority} "
            f"under the strict-priority policy {policy.name!r}; ties fall "
            "back to FIFO arrival order",
            hint="assign distinct priorities, or use the "
                 "'priority_round_robin' policy if sharing is intended",
        )


# ---------------------------------------------------------------------------
# Overheads (RTS120)
# ---------------------------------------------------------------------------
def _check_overheads(report: Report, context: LintContext,
                     processor: Any) -> None:
    for component, message in context.overheads(processor)[1]:
        report.add(
            RTS120,
            report.ERROR,
            f"{_cpu_loc(processor)}/overheads.{component}",
            message,
            hint="formulas must accept the processor and return a "
                 "non-negative int duration for every reachable state",
        )


# ---------------------------------------------------------------------------
# Lock graph (RTS110 / RTS111 / RTS112)
# ---------------------------------------------------------------------------
def _check_locks(report: Report, system: Any,
                 flows: Dict[str, TaskFlow]) -> None:
    shared_vars = {
        name: relation
        for name, relation in system.relations.items()
        if isinstance(relation, SharedVariable)
    }
    if not shared_vars:
        return

    # held -> acquired edges, with the tasks inducing each edge
    edges: Dict[str, Set[str]] = {}
    edge_tasks: Dict[tuple, Set[str]] = {}
    users: Dict[str, List] = {name: [] for name in shared_vars}
    for fn_name, flow in flows.items():
        usage = flow.usage
        fn = usage.function
        for shared in usage.acquires:
            if shared in users:
                users[shared].append(fn)
        for held, acquired in usage.nested:
            if held in shared_vars and acquired in shared_vars:
                edges.setdefault(held, set()).add(acquired)
                edge_tasks.setdefault((held, acquired), set()).add(fn_name)

    for cycle in find_cycles(edges):
        participants = sorted(
            itertools.chain.from_iterable(
                edge_tasks.get(pair, ())
                for pair in zip(cycle, cycle[1:])
            )
        )
        if len(set(participants)) < 2:
            continue  # one task re-locking its own chain blocks, but
            # cannot deadlock another party; the runtime catches it
        if all(
            isinstance(shared_vars[name], CeilingSharedVariable)
            for name in cycle[:-1]
        ):
            continue  # the immediate ceiling protocol prevents deadlock
        report.add(
            RTS110,
            report.ERROR,
            "shared " + " -> ".join(cycle),
            f"tasks {', '.join(sorted(set(participants)))} acquire these "
            "variables in conflicting nested orders; a deadlock is "
            "reachable",
            hint="impose a global lock order, or protect the cycle with "
                 "CeilingSharedVariable",
        )

    for name, relation in sorted(shared_vars.items()):
        if isinstance(relation, (InheritanceSharedVariable,
                                 CeilingSharedVariable)):
            _check_ceiling(report, relation, users.get(name, ()))
            continue
        _check_inversion(report, relation, users.get(name, ()))


def _mapped_priority(fn: Any) -> Optional[int]:
    task = getattr(fn, "task", None)
    if task is None:
        return None
    priority = task.base_priority
    if isinstance(priority, bool) or not isinstance(priority, int):
        return None
    return priority


def _check_inversion(report: Report, relation: Any,
                     users: Sequence[Any]) -> None:
    """RTS111: plain mutex shared across priorities with middle tasks."""
    by_cpu: Dict[object, List] = {}
    for fn in users:
        task = getattr(fn, "task", None)
        if task is not None:
            by_cpu.setdefault(task.processor, []).append(fn)
    for processor, fns in by_cpu.items():
        priorities = sorted(
            p for p in (_mapped_priority(fn) for fn in fns) if p is not None
        )
        if len(priorities) < 2:
            continue
        low, high = priorities[0], priorities[-1]
        if low == high:
            continue
        middle = [
            task.name
            for task in processor.tasks
            if task.function not in fns
            and isinstance(task.base_priority, int)
            and not isinstance(task.base_priority, bool)
            and low < task.base_priority < high
        ]
        if not middle:
            continue
        report.add(
            RTS111,
            report.WARNING,
            f"shared {relation.name}",
            f"locked by tasks at priorities {low}..{high} on "
            f"{processor.name} while {', '.join(sorted(middle))} run(s) "
            "in between: unbounded priority inversion is possible",
            hint="use InheritanceSharedVariable or CeilingSharedVariable, "
                 "or mask preemption around the critical section",
        )


def _check_ceiling(report: Report, relation: Any,
                   users: Sequence[Any]) -> None:
    """RTS112: a declared ceiling below the priority of a user task."""
    ceiling = getattr(relation, "ceiling", None)
    if ceiling is None:
        return
    for fn in users:
        priority = _mapped_priority(fn)
        if priority is not None and priority > ceiling:
            report.add(
                RTS112,
                report.ERROR,
                f"shared {relation.name}",
                f"ceiling {ceiling} is below the priority {priority} of "
                f"user task {fn.name!r}; the protocol cannot prevent "
                "inversion for that task",
                hint="set the ceiling to at least the highest user "
                     "priority",
            )


# ---------------------------------------------------------------------------
# Reachability (RTS130) and partitions (RTS140 / RTS141)
# ---------------------------------------------------------------------------
def _check_reachability(report: Report, system: Any,
                        flows: Dict[str, TaskFlow]) -> None:
    """RTS130: a task whose first action waits on a dead event.

    Only claimed when the whole system is statically visible: every
    function's effect tree is exact (script ops, or a behavior whose
    source parses with every effect target resolved).  Any opaque
    function may signal anything, so the rule stays silent then.
    """
    from ..mcse.events import EventRelation

    signalers: Set[str] = set()
    for flow in flows.values():
        if flow.effects is None or not flow.effects.exact:
            return
        signalers.update(target for kind, target in flow.keys
                         if kind == "signal" and target is not None)
    for name, fn in system.functions.items():
        ops = getattr(fn, "script_ops", None)
        if not ops:
            continue
        first = _first_op(ops)
        if first is None or first[0] != "wait":
            continue
        event_name = first[1][0]
        relation = system.relations.get(event_name)
        if not isinstance(relation, EventRelation):
            continue
        if relation.pending() > 0:
            continue  # a memorized occurrence satisfies the first wait
        if event_name not in signalers:
            report.add(
                RTS130,
                report.ERROR,
                f"function {name}",
                f"first waits on event {event_name!r}, which no function "
                "ever signals: the task can never become ready",
                hint="signal the event from some function, or drop the "
                     "dead wait",
            )


def _first_op(ops: Sequence[Any]) -> Optional[Tuple[str, List[Any]]]:
    for op_name, args in ops:
        if op_name == "loop":
            inner = _first_op(args[1])
            if inner is not None:
                return inner
            continue
        return op_name, args
    return None


def _check_partitions(report: Report, context: LintContext,
                      processor: Any) -> None:
    policy = processor.policy
    if not isinstance(policy, TimePartitionPolicy):
        return
    windows = dict(policy.windows)
    demand: Dict[str, int] = {name: 0 for name in windows}
    for task in processor.tasks:
        partition = getattr(task.function, "partition", None)
        if partition is None:
            continue  # background tasks are eligible everywhere
        if partition not in windows:
            report.add(
                RTS141,
                report.ERROR,
                f"{_cpu_loc(processor)}/{task.name}",
                f"partition label {partition!r} matches no window of the "
                f"time-partition policy (windows: "
                f"{', '.join(sorted(windows))}); the task is never "
                "eligible to run",
                hint="add a window for the partition or fix the label",
            )
            continue
        profile = context.profile(task)
        if profile is None:
            continue
        # demand inside one major frame, charged to the partition window
        jobs = policy.major_frame / profile.period
        demand[partition] += round(profile.wcet * jobs)
    for partition, window in windows.items():
        if demand[partition] > window:
            from ..kernel.time import format_time

            report.add(
                RTS140,
                report.ERROR,
                f"{_cpu_loc(processor)}/partition {partition}",
                f"periodic demand {format_time(demand[partition])} per "
                f"major frame exceeds the partition's window "
                f"{format_time(window)}; its tasks cannot meet their "
                "periods",
                hint="widen the window, lengthen task periods, or move "
                     "tasks to another partition",
            )

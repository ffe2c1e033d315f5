"""Whole-run statistics: the paper's Figure 8.

From a simulation the paper's tool reports, per task, the **activity
ratio** (1), the **preempted ratio** (2) and the **waiting-on-resource
ratio** (3), plus per relation the **utilization ratio** (4).  This
module computes all four, two independent ways:

* :func:`task_stats_from_functions` -- from the online accumulators every
  function keeps (cheap, always available);
* :func:`task_stats_from_records` -- by replaying the recorded trace
  (exactly what a display tool would do).

The test suite cross-checks both paths against each other, which guards
the whole state-accounting pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..kernel.time import Time, format_time
from .records import StateRecord, TaskState
from .recorder import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from ..mcse.function import Function
    from ..mcse.relations import Relation


@dataclass
class TaskStats:
    """Per-task ratios of the Figure-8 table."""

    name: str
    processor: Optional[str]
    total: Time
    running: Time
    ready: Time
    preempted: Time
    waiting: Time
    waiting_resource: Time

    @property
    def activity_ratio(self) -> float:
        """Fraction of time executing on the processor (Fig. 8 (1))."""
        return self.running / self.total if self.total else 0.0

    @property
    def preempted_ratio(self) -> float:
        """Fraction of time preempted -- Ready entered by eviction (Fig. 8 (2))."""
        return self.preempted / self.total if self.total else 0.0

    @property
    def ready_ratio(self) -> float:
        """Fraction of time Ready for any reason."""
        return self.ready / self.total if self.total else 0.0

    @property
    def waiting_ratio(self) -> float:
        """Fraction of time waiting for a synchronization."""
        return self.waiting / self.total if self.total else 0.0

    @property
    def waiting_resource_ratio(self) -> float:
        """Fraction of time blocked on mutual exclusion (Fig. 8 (3))."""
        return self.waiting_resource / self.total if self.total else 0.0


@dataclass
class RelationStats:
    """Per-relation utilization of the Figure-8 table (4)."""

    name: str
    kind: str
    utilization: float
    access_count: int
    blocked_count: int
    mean_occupancy: float


def task_stats_from_functions(
    functions: Iterable["Function"], total: Optional[Time] = None
) -> List[TaskStats]:
    """Compute task statistics from the functions' online accumulators."""
    stats = []
    for fn in functions:
        end = total if total is not None else fn.sim.now
        durations = dict(fn.state_durations)
        if fn.state is not None:
            durations[fn.state] = durations.get(fn.state, 0) + (
                fn.sim.now - fn._state_since
            )
        stats.append(
            TaskStats(
                name=fn.name,
                processor=fn.processor_name,
                total=end,
                running=durations.get(TaskState.RUNNING, 0),
                ready=durations.get(TaskState.READY, 0),
                preempted=fn.preempted_time,
                waiting=durations.get(TaskState.WAITING, 0),
                waiting_resource=durations.get(TaskState.WAITING_RESOURCE, 0),
            )
        )
    return stats


def task_stats_from_records(
    recorder: TraceRecorder, total: Optional[Time] = None
) -> List[TaskStats]:
    """Compute task statistics by replaying the recorded trace."""
    records = recorder.of_type(StateRecord)
    if total is None:
        total = max((r.time for r in recorder.records), default=0)
    ready = TaskState.READY
    processors: Dict[str, Optional[str]] = {}
    durations: Dict[str, Dict[TaskState, Time]] = {}
    preempted: Dict[str, Time] = {}
    open_state: Dict[str, StateRecord] = {}
    for record in records:
        task = record.task
        previous = open_state.get(task)
        if previous is None:
            processors[task] = record.processor
            durations[task] = {}
            preempted[task] = 0
        else:
            if record.processor is not None:
                processors[task] = record.processor
            elapsed = record.time - previous.time
            spent = durations[task]
            spent[previous.state] = spent.get(previous.state, 0) + elapsed
            if previous.state is ready and previous.reason == "preempted":
                preempted[task] += elapsed
        open_state[task] = record
    for task, record in open_state.items():
        elapsed = total - record.time
        if elapsed > 0:
            spent = durations[task]
            spent[record.state] = spent.get(record.state, 0) + elapsed
            if record.state is ready and record.reason == "preempted":
                preempted[task] += elapsed
    stats = []
    for task, processor in processors.items():
        spent = durations[task]
        stats.append(
            TaskStats(
                name=task,
                processor=processor,
                total=total,
                running=spent.get(TaskState.RUNNING, 0),
                ready=spent.get(ready, 0),
                preempted=preempted[task],
                waiting=spent.get(TaskState.WAITING, 0),
                waiting_resource=spent.get(TaskState.WAITING_RESOURCE, 0),
            )
        )
    return stats


def relation_stats(
    relations: Iterable["Relation"], now: Optional[Time] = None
) -> List[RelationStats]:
    """Compute per-relation utilization (Fig. 8 (4)).

    Utilization is defined per relation kind: fraction of time locked for
    shared variables, mean buffer occupancy over capacity for bounded
    queues, and mean pending-signal level for memorizing events.
    """
    from ..mcse.queues import MessageQueue
    from ..mcse.shared import SharedVariable

    stats = []
    for relation in relations:
        mean_occ = relation.mean_occupancy()
        if isinstance(relation, SharedVariable):
            utilization = relation.utilization()
            kind = "shared"
        elif isinstance(relation, MessageQueue):
            kind = "queue"
            if relation.capacity:
                utilization = mean_occ / relation.capacity
            else:
                utilization = mean_occ
        else:
            kind = "event"
            utilization = mean_occ
        stats.append(
            RelationStats(
                name=relation.name,
                kind=kind,
                utilization=utilization,
                access_count=relation.access_count,
                blocked_count=relation.blocked_count,
                mean_occupancy=mean_occ,
            )
        )
    return stats


def format_report(
    task_stats: List[TaskStats],
    rel_stats: Optional[List[RelationStats]] = None,
    processors: Optional[Iterable] = None,
    domains: Optional[Iterable] = None,
) -> str:
    """Render the Figure-8 statistics as a fixed-width text table."""
    lines = []
    name_w = max([len(s.name) for s in task_stats] + [4])
    lines.append(
        f"{'task':{name_w}}  {'cpu':10}  {'activity':>8}  {'preempted':>9}  "
        f"{'ready':>7}  {'waiting':>7}  {'resource':>8}"
    )
    for s in task_stats:
        lines.append(
            f"{s.name:{name_w}}  {s.processor or '-':10}  "
            f"{s.activity_ratio:8.2%}  {s.preempted_ratio:9.2%}  "
            f"{s.ready_ratio:7.2%}  {s.waiting_ratio:7.2%}  "
            f"{s.waiting_resource_ratio:8.2%}"
        )
    if rel_stats:
        lines.append("")
        rel_w = max([len(s.name) for s in rel_stats] + [8])
        lines.append(
            f"{'relation':{rel_w}}  {'kind':6}  {'util':>7}  "
            f"{'accesses':>8}  {'blocked':>7}"
        )
        for s in rel_stats:
            lines.append(
                f"{s.name:{rel_w}}  {s.kind:6}  {s.utilization:7.2%}  "
                f"{s.access_count:8d}  {s.blocked_count:7d}"
            )
    if processors:
        lines.append("")
        for cpu in processors:
            info = cpu.stats()
            line = (
                f"processor {info['processor']} ({info['engine']}, "
                f"{info['policy']}): util {info['utilization']:.2%}, "
                f"{info['dispatches']} dispatches, "
                f"{info['preemptions']} preemptions, "
                f"overhead {format_time(info['overhead_time'])}"
            )
            if info.get("migrations"):
                line += f", {info['migrations']} migrations"
            lines.append(line)
    if domains:
        lines.append("")
        for domain in domains:
            info = domain.stats()
            lines.append(
                f"domain {info['domain']} ({info['kind']}, {info['policy']}):"
                f" {len(info['processors'])} cores, "
                f"{info['migrations']} migrations, "
                f"mean util {info['mean_utilization']:.2%}"
            )
    return "\n".join(lines)

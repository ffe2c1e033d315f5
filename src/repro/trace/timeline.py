"""TimeLine charts: the paper's main result-exploitation view (§5).

A TimeLine chart displays, per task, its state over time (Running,
Ready, Waiting, Waiting-for-resource) plus arrows for every relation
access, and per processor the RTOS overhead windows.  The paper reads
reaction times, overhead windows and blocking intervals directly off
this chart; :class:`TimelineChart` exposes the same data
programmatically (segments and arrows) and renders it as ASCII art; the
SVG exporter (:mod:`repro.trace.svg`) produces the graphical version.

ASCII legend::

    #  running            .  waiting (synchronization)
    =  ready (preempted or waiting for the processor)
    m  waiting for resource (mutual exclusion)
    c  created            x  terminated
    s/S/l  context-save / scheduling / context-load (processor rows)
    markers: v write/signal down-arrow, ^ read/wait up-arrow, L/U lock/unlock
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import TraceError
from ..kernel.time import Time, format_time
from .records import (
    AccessKind,
    AccessRecord,
    OverheadKind,
    OverheadRecord,
    StateRecord,
    TaskState,
)
from .recorder import TraceRecorder

#: One character per state for the ASCII rendering.
STATE_SYMBOLS = {
    TaskState.RUNNING: "#",
    TaskState.READY: "=",
    TaskState.WAITING: ".",
    TaskState.WAITING_RESOURCE: "m",
    TaskState.CREATED: "c",
    TaskState.TERMINATED: "x",
}

ACCESS_SYMBOLS = {
    AccessKind.SIGNAL: "v",
    AccessKind.WRITE: "v",
    AccessKind.WAIT: "^",
    AccessKind.READ: "^",
    AccessKind.LOCK: "L",
    AccessKind.UNLOCK: "U",
}

OVERHEAD_SYMBOLS = {
    OverheadKind.CONTEXT_SAVE: "s",
    OverheadKind.SCHEDULING: "S",
    OverheadKind.CONTEXT_LOAD: "l",
    OverheadKind.MIGRATION: "M",
}


@dataclass(frozen=True)
class Segment:
    """A task stayed in ``state`` during [start, end)."""

    start: Time
    end: Time
    state: TaskState


@dataclass(frozen=True)
class Arrow:
    """A relation access drawn as a vertical arrow."""

    time: Time
    task: str
    relation: str
    kind: AccessKind
    blocked: bool


@dataclass(frozen=True)
class OverheadWindow:
    """An RTOS overhead slice on a processor row."""

    start: Time
    end: Time
    kind: OverheadKind
    processor: str
    task: Optional[str]


class TimelineChart:
    """The chart model: per-task segments, arrows, overhead windows."""

    def __init__(self, start: Time, end: Time) -> None:
        if end < start:
            raise TraceError(f"empty time window: {start}..{end}")
        self.start = start
        self.end = end
        self.task_segments: Dict[str, List[Segment]] = {}
        self.arrows: List[Arrow] = []
        self.overheads: Dict[str, List[OverheadWindow]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_recorder(
        cls,
        recorder: TraceRecorder,
        start: Time = 0,
        end: Optional[Time] = None,
    ) -> "TimelineChart":
        """Build the chart from recorded state/access/overhead records."""
        if end is None:
            end = max((r.time for r in recorder.records), default=0)
        chart = cls(start, end)
        open_state: Dict[str, Tuple[Time, TaskState]] = {}
        for record in recorder.records:
            if isinstance(record, StateRecord):
                previous = open_state.get(record.task)
                if previous is not None:
                    seg_start, state = previous
                    chart._add_segment(record.task, seg_start, record.time, state)
                open_state[record.task] = (record.time, record.state)
            elif isinstance(record, AccessRecord):
                chart.arrows.append(
                    Arrow(record.time, record.task, record.relation,
                          record.kind, record.blocked)
                )
            elif isinstance(record, OverheadRecord):
                chart.overheads.setdefault(record.processor, []).append(
                    OverheadWindow(
                        record.time, record.time + record.duration,
                        record.kind, record.processor, record.task,
                    )
                )
        for task, (seg_start, state) in open_state.items():
            chart._add_segment(task, seg_start, end, state)
        return chart

    def _add_segment(self, task: str, start: Time, end: Time,
                     state: TaskState) -> None:
        if end < start:
            raise TraceError(
                f"segment for {task!r} goes backwards: {start}..{end}"
            )
        self.task_segments.setdefault(task, []).append(
            Segment(start, end, state)
        )

    # ------------------------------------------------------------------
    # Queries (the measurements the paper reads off the chart)
    # ------------------------------------------------------------------
    def tasks(self) -> List[str]:
        return list(self.task_segments)

    def segments(self, task: str, state: Optional[TaskState] = None) -> List[Segment]:
        segments = self.task_segments.get(task, [])
        if state is not None:
            segments = [s for s in segments if s.state is state]
        return segments

    def state_at(self, task: str, time: Time) -> Optional[TaskState]:
        """The state ``task`` was in at ``time`` (None before creation)."""
        for segment in self.task_segments.get(task, []):
            if segment.start <= time < segment.end:
                return segment.state
        return None

    def first_running(self, task: str, after: Time = 0) -> Optional[Time]:
        """When ``task`` first entered Running at or after ``after``."""
        for segment in self.segments(task, TaskState.RUNNING):
            if segment.start >= after:
                return segment.start
        return None

    def time_in_state(self, task: str, state: TaskState) -> Time:
        return sum(s.end - s.start for s in self.segments(task, state))

    # ------------------------------------------------------------------
    # ASCII rendering
    # ------------------------------------------------------------------
    def render_ascii(self, width: int = 100, show_arrows: bool = True,
                     show_overheads: bool = True) -> str:
        """Render the chart as fixed-width ASCII art."""
        span = max(self.end - self.start, 1)
        label_width = max(
            [len(name) for name in self.task_segments] +
            [len(name) for name in self.overheads] + [4]
        )

        def column(t: Time) -> int:
            col = (t - self.start) * width // span
            return min(max(int(col), 0), width - 1)

        lines = []
        header = (
            f"{'':{label_width}} "
            f"{format_time(self.start)} .. {format_time(self.end)}  "
            f"(1 col = {format_time(span // width or 1)})"
        )
        lines.append(header)
        for task, segments in self.task_segments.items():
            row = [" "] * width
            for segment in segments:
                c0 = column(segment.start)
                c1 = column(segment.end) if segment.end > segment.start else c0
                c1 = max(c1, c0 + 1)
                symbol = STATE_SYMBOLS[segment.state]
                for c in range(c0, min(c1, width)):
                    row[c] = symbol
            if show_arrows:
                for arrow in self.arrows:
                    if arrow.task == task and self.start <= arrow.time <= self.end:
                        row[column(arrow.time)] = ACCESS_SYMBOLS[arrow.kind]
            lines.append(f"{task:{label_width}} " + "".join(row))
        if show_overheads:
            for processor, windows in self.overheads.items():
                row = [" "] * width
                for window in windows:
                    c0 = column(window.start)
                    c1 = max(column(window.end), c0 + 1)
                    symbol = OVERHEAD_SYMBOLS[window.kind]
                    for c in range(c0, min(c1, width)):
                        row[c] = symbol
                lines.append(f"{processor:{label_width}} " + "".join(row))
        lines.append(
            f"{'':{label_width}} legend: #=running ==ready .=waiting "
            "m=resource s/S/l/M=save/sched/load/migrate v/^=write/read "
            "L/U=lock/unlock"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TimelineChart {format_time(self.start)}..{format_time(self.end)} "
            f"tasks={len(self.task_segments)} arrows={len(self.arrows)}>"
        )

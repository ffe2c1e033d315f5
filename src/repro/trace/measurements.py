"""Timing measurements on recorded traces.

Everything the paper measures *by hand* on the TimeLine chart --
"the time spent between an external event and the system's reaction",
overhead windows, blocking intervals -- is computed here
programmatically so tests and benchmarks can assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..kernel.time import Time
from .records import (
    ACTIVATION_REASONS,
    COMPLETION_STATES,
    AccessKind,
    AccessRecord,
    InterruptRecord,
    OverheadRecord,
    StateRecord,
    TaskState,
)
from .recorder import TraceRecorder


@dataclass(frozen=True)
class Interval:
    """A measured [start, end) interval."""

    start: Time
    end: Time

    @property
    def duration(self) -> Time:
        return self.end - self.start


def stimulus_times(recorder: TraceRecorder, source: str) -> List[Time]:
    """Times at which ``source`` fired.

    ``source`` may be an interrupt name or a relation name (its SIGNAL /
    WRITE accesses count as stimuli).
    """
    times = [r.time for r in recorder.of_type(InterruptRecord)
             if r.source == source]
    times += [
        r.time
        for r in recorder.of_type(AccessRecord)
        if r.relation == source and r.kind in (AccessKind.SIGNAL, AccessKind.WRITE)
    ]
    return sorted(times)


def running_starts(recorder: TraceRecorder, task: str) -> List[Time]:
    """Times at which ``task`` entered the Running state."""
    return [
        r.time
        for r in recorder.of_type(StateRecord)
        if r.task == task and r.state is TaskState.RUNNING
    ]


def reaction_latencies(
    recorder: TraceRecorder, source: str, task: str
) -> List[Time]:
    """Per-stimulus latency from ``source`` firing to ``task`` running.

    This is the paper's measurement (1): e.g. ``Clk`` fires at 100us,
    Function_1 starts running at 115us, latency 15us.  Stimuli that were
    never followed by a task start are skipped.
    """
    stimuli = stimulus_times(recorder, source)
    starts = running_starts(recorder, task)
    latencies = []
    start_index = 0
    for stimulus in stimuli:
        while start_index < len(starts) and starts[start_index] < stimulus:
            start_index += 1
        if start_index == len(starts):
            break
        latencies.append(starts[start_index] - stimulus)
        start_index += 1
    return latencies


def state_intervals(
    recorder: TraceRecorder,
    task: str,
    state: TaskState,
    end_time: Optional[Time] = None,
) -> List[Interval]:
    """All intervals ``task`` spent in ``state``."""
    records = [r for r in recorder.of_type(StateRecord) if r.task == task]
    if end_time is None:
        end_time = max((r.time for r in recorder.records), default=0)
    intervals = []
    for current, nxt in zip(records, records[1:] + [None]):
        if current.state is state:
            end = nxt.time if nxt is not None else end_time
            intervals.append(Interval(current.time, end))
    return intervals


def blocking_intervals(recorder: TraceRecorder, task: str) -> List[Interval]:
    """Intervals ``task`` spent blocked on mutual exclusion (Figure 7)."""
    return state_intervals(recorder, task, TaskState.WAITING_RESOURCE)


def switch_sequences(
    recorder: TraceRecorder, processor: str, gap: Time = 0
) -> List[Tuple[Interval, Tuple[str, ...]]]:
    """Group back-to-back overhead records into switch sequences.

    Returns ``(interval, kinds)`` pairs, e.g. a Figure-6 preemption shows
    up as ``(Interval(100us, 115us), ('context_save', 'scheduling',
    'context_load'))`` -- the (b) pattern; a case-(c) wake is a lone
    ``('scheduling',)``.
    """
    records = sorted(
        recorder.overheads(processor), key=lambda r: (r.time, r.kind.value)
    )
    sequences: List[Tuple[Interval, Tuple[str, ...]]] = []
    current: List[OverheadRecord] = []
    for record in records:
        if current and record.time > current[-1].time + current[-1].duration + gap:
            sequences.append(_close_sequence(current))
            current = []
        current.append(record)
    if current:
        sequences.append(_close_sequence(current))
    return sequences


def _close_sequence(records: List[OverheadRecord]):
    interval = Interval(
        records[0].time, records[-1].time + records[-1].duration
    )
    kinds = tuple(r.kind.value for r in records)
    return interval, kinds


def percentile(values: List[Time], q: float) -> Time:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Implemented locally (no numpy dependency in the core library) and
    exact for the integer femtosecond domain.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return round(ordered[lower] + (ordered[upper] - ordered[lower]) * fraction)


def latency_summary(values: List[Time]) -> dict:
    """min/mean/p50/p95/p99/max of a latency sample (femtoseconds)."""
    if not values:
        return {"count": 0}
    return {
        "count": len(values),
        "min": min(values),
        "mean": sum(values) // len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "max": max(values),
    }


def ascii_histogram(values: List[Time], *, bins: int = 10,
                    width: int = 50) -> str:
    """A quick fixed-width histogram of a latency sample.

    Bin edges are uniform over [min, max]; each row shows the bin's
    upper edge, count and a proportional bar.
    """
    from ..kernel.time import format_time

    if not values:
        return "(no samples)"
    low, high = min(values), max(values)
    if low == high:
        return f"{format_time(low)}  |{'#' * width} {len(values)}"
    span = high - low
    counts = [0] * bins
    for value in values:
        index = min((value - low) * bins // span, bins - 1)
        counts[index] += 1
    peak = max(counts)
    lines = []
    for index, count in enumerate(counts):
        edge = low + span * (index + 1) // bins
        bar = "#" * max(1 if count else 0, count * width // peak)
        lines.append(f"<= {format_time(edge):>12} {count:>6} |{bar}")
    return "\n".join(lines)


def response_times(
    recorder: TraceRecorder, task: str, end_time: Optional[Time] = None
) -> List[Time]:
    """Per-activation response times of ``task``.

    An *activation* is a transition into Ready from Waiting (wakeup); the
    *completion* is the next transition into a Waiting state or
    termination.  The initial creation also counts as an activation.
    The rule is :data:`~repro.trace.records.ACTIVATION_REASONS` and
    :data:`~repro.trace.records.COMPLETION_STATES`, the same job window
    the deadline watchdog arms.
    """
    records = [r for r in recorder.of_type(StateRecord) if r.task == task]
    responses = []
    activation: Optional[Time] = None
    for record in records:
        if (record.state is TaskState.READY
                and record.reason in ACTIVATION_REASONS):
            if activation is None:
                activation = record.time
        elif record.state in COMPLETION_STATES:
            if activation is not None:
                responses.append(record.time - activation)
                activation = None
    return responses

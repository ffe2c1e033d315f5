"""Automatic verification of timing constraints.

The paper's stated future work: "automatic verification of timing
constraints by simulation after setting these constraints in the initial
system model."  This module implements it: declare constraints next to
the model, run the simulation with a recorder attached, then ``verify``
the whole set against the trace.  ``hard`` constraints raise
:class:`~repro.errors.ConstraintViolation`; soft ones are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import ConstraintViolation
from ..kernel.time import Time, format_time
from .recorder import TraceRecorder
from .measurements import reaction_latencies, response_times, running_starts


@dataclass(frozen=True)
class Violation:
    """One constraint violation found in a trace."""

    constraint: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.constraint}: {self.detail}"


class Constraint:
    """Base class: evaluate against a recorded trace."""

    def __init__(self, name: str, hard: bool = False) -> None:
        self.name = name
        self.hard = hard

    def check(self, recorder: TraceRecorder) -> List[Violation]:
        """Return the violations this constraint finds in the trace."""
        raise NotImplementedError


class DeadlineConstraint(Constraint):
    """Every activation of ``task`` must complete within ``deadline``."""

    def __init__(self, task: str, deadline: Time, *, hard: bool = False,
                 name: Optional[str] = None) -> None:
        super().__init__(name or f"deadline({task})", hard)
        self.task = task
        self.deadline = deadline

    def check(self, recorder: TraceRecorder) -> List[Violation]:
        violations = []
        for index, response in enumerate(response_times(recorder, self.task)):
            if response > self.deadline:
                violations.append(
                    Violation(
                        self.name,
                        f"activation {index}: response "
                        f"{format_time(response)} > deadline "
                        f"{format_time(self.deadline)}",
                    )
                )
        return violations


class ReactionConstraint(Constraint):
    """``task`` must start running within ``latency`` of each ``source``
    stimulus (the paper's measurement (1) as a requirement)."""

    def __init__(self, source: str, task: str, latency: Time, *,
                 hard: bool = False, name: Optional[str] = None) -> None:
        super().__init__(name or f"reaction({source}->{task})", hard)
        self.source = source
        self.task = task
        self.latency = latency

    def check(self, recorder: TraceRecorder) -> List[Violation]:
        violations = []
        for index, latency in enumerate(
            reaction_latencies(recorder, self.source, self.task)
        ):
            if latency > self.latency:
                violations.append(
                    Violation(
                        self.name,
                        f"stimulus {index}: reaction {format_time(latency)} "
                        f"> bound {format_time(self.latency)}",
                    )
                )
        return violations


class JitterConstraint(Constraint):
    """Start-time jitter of ``task`` must stay within ``max_jitter``.

    Jitter is measured as the peak deviation of consecutive running-start
    spacings from their median spacing.
    """

    def __init__(self, task: str, max_jitter: Time, *, hard: bool = False,
                 name: Optional[str] = None) -> None:
        super().__init__(name or f"jitter({task})", hard)
        self.task = task
        self.max_jitter = max_jitter

    def check(self, recorder: TraceRecorder) -> List[Violation]:
        starts = running_starts(recorder, self.task)
        if len(starts) < 3:
            return []
        gaps = sorted(b - a for a, b in zip(starts, starts[1:]))
        median = gaps[len(gaps) // 2]
        violations = []
        for index, (a, b) in enumerate(zip(starts, starts[1:])):
            deviation = abs((b - a) - median)
            if deviation > self.max_jitter:
                violations.append(
                    Violation(
                        self.name,
                        f"gap {index}: jitter {format_time(deviation)} > "
                        f"bound {format_time(self.max_jitter)}",
                    )
                )
        return violations


class PrecedenceConstraint(Constraint):
    """Every stimulus on ``source`` must be followed by an access on
    ``target`` within ``latency`` (pipeline freshness: "every sensor
    write reaches the actuator within T")."""

    def __init__(self, source: str, target: str, latency: Time, *,
                 hard: bool = False, name: Optional[str] = None) -> None:
        super().__init__(name or f"precedence({source}->{target})", hard)
        self.source = source
        self.target = target
        self.latency = latency

    def check(self, recorder: TraceRecorder) -> List[Violation]:
        from .records import AccessKind, AccessRecord

        producing = (AccessKind.WRITE, AccessKind.SIGNAL)
        sources = [r.time for r in recorder.of_type(AccessRecord)
                   if r.relation == self.source and r.kind in producing]
        targets = [r.time for r in recorder.of_type(AccessRecord)
                   if r.relation == self.target and r.kind in producing]
        violations = []
        target_index = 0
        end_of_trace = max((r.time for r in recorder.records), default=0)
        for index, stimulus in enumerate(sources):
            while target_index < len(targets) and targets[target_index] < stimulus:
                target_index += 1
            if target_index >= len(targets):
                # no follower: only a violation if the bound expired
                # within the recorded window
                if stimulus + self.latency <= end_of_trace:
                    violations.append(Violation(
                        self.name,
                        f"stimulus {index} at {format_time(stimulus)} "
                        "never followed",
                    ))
                continue
            gap = targets[target_index] - stimulus
            if gap > self.latency:
                violations.append(Violation(
                    self.name,
                    f"stimulus {index}: follower after {format_time(gap)} "
                    f"> bound {format_time(self.latency)}",
                ))
            target_index += 1
        return violations


class ThroughputConstraint(Constraint):
    """At least ``min_count`` accesses on ``relation`` per ``window``.

    Windows tile the trace from t=0; the trailing partial window is not
    checked (it has not had its full duration yet).
    """

    def __init__(self, relation: str, min_count: int, window: Time, *,
                 hard: bool = False, name: Optional[str] = None) -> None:
        super().__init__(name or f"throughput({relation})", hard)
        self.relation = relation
        self.min_count = min_count
        self.window = window

    def check(self, recorder: TraceRecorder) -> List[Violation]:
        from .records import AccessRecord

        times = [r.time for r in recorder.of_type(AccessRecord)
                 if r.relation == self.relation]
        end = max((r.time for r in recorder.records), default=0)
        violations = []
        window_index = 0
        while (window_index + 1) * self.window <= end:
            start = window_index * self.window
            stop = start + self.window
            count = sum(1 for t in times if start <= t < stop)
            if count < self.min_count:
                violations.append(Violation(
                    self.name,
                    f"window [{format_time(start)}, {format_time(stop)}): "
                    f"{count} < {self.min_count}",
                ))
            window_index += 1
        return violations


@dataclass
class ConstraintSet:
    """A named collection of constraints verified together."""

    constraints: List[Constraint] = field(default_factory=list)

    def add(self, constraint: Constraint) -> Constraint:
        self.constraints.append(constraint)
        return constraint

    def verify(self, recorder: TraceRecorder) -> List[Violation]:
        """Check every constraint; raise if a *hard* one is violated."""
        all_violations: List[Violation] = []
        hard_violations: List[Violation] = []
        for constraint in self.constraints:
            found = constraint.check(recorder)
            all_violations.extend(found)
            if constraint.hard and found:
                hard_violations.extend(found)
        if hard_violations:
            summary = "; ".join(str(v) for v in hard_violations[:5])
            raise ConstraintViolation(
                f"{len(hard_violations)} hard timing violation(s): {summary}"
            )
        return all_violations

    def report(self, recorder: TraceRecorder) -> str:
        """Human-readable pass/fail summary (never raises)."""
        lines = []
        for constraint in self.constraints:
            found = constraint.check(recorder)
            status = "PASS" if not found else f"FAIL ({len(found)})"
            lines.append(f"{constraint.name:40s} {status}")
            for violation in found[:3]:
                lines.append(f"    {violation.detail}")
        return "\n".join(lines)

"""Time-partition scheduling (ARINC-653-style), as a pluggable policy.

Avionics RTOSes isolate applications by *time partitioning*: a cyclic
major frame is divided into windows, each owned by one partition, and
only that partition's tasks may use the CPU inside its window.  Because
the paper's model makes the scheduling policy generic (§3.1), the whole
scheme fits into one :class:`SchedulingPolicy`:

* each task carries a partition label (``function.partition``; tasks
  without one are *background* and eligible in every window);
* :class:`TimePartitionPolicy` selects by priority among the eligible
  ready tasks and preempts a task whose partition loses the window --
  at the exact boundary, courtesy of time-accurate preemption;
* inside a window, scheduling is fixed-priority preemptive.

Example::

    policy = TimePartitionPolicy([("flight", 5 * MS), ("cabin", 3 * MS)])
    cpu = system.processor("cpu", policy=policy)
    flight_ctl = system.function("fctl", body, priority=5)
    flight_ctl.partition = "flight"
    cpu.map(flight_ctl)
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..errors import RTOSError
from ..kernel.time import Time, format_time
from .policies import POLICIES, SchedulingPolicy


class TimePartitionPolicy(SchedulingPolicy):
    """Cyclic time windows, fixed-priority preemptive within a window."""

    name = "time_partition"

    def __init__(self, windows: Sequence[Tuple[str, Time]]) -> None:
        if not windows:
            raise RTOSError("need at least one partition window")
        for partition, duration in windows:
            if duration <= 0:
                raise RTOSError(
                    f"window for {partition!r} must be positive: {duration}"
                )
        self.windows: List[Tuple[str, Time]] = list(windows)
        self.major_frame: Time = sum(d for _, d in windows)
        self._index = 0
        self._processor = None
        #: Window boundaries crossed so far (for tests/statistics).
        self.boundary_count = 0

    # ------------------------------------------------------------------
    # Window state
    # ------------------------------------------------------------------
    @property
    def active_partition(self) -> str:
        return self.windows[self._index][0]

    def _eligible(self, task) -> bool:
        partition = getattr(task.function, "partition", None)
        return partition is None or partition == self.active_partition

    def window_at(self, time: Time) -> str:
        """The partition owning the window at absolute ``time``."""
        offset = time % self.major_frame
        for partition, duration in self.windows:
            if offset < duration:
                return partition
            offset -= duration
        return self.windows[-1][0]  # pragma: no cover - exact sum

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------
    def on_attach(self, processor) -> None:
        if self._processor is not None:
            raise RTOSError(
                "a TimePartitionPolicy instance serves a single processor"
            )
        self._processor = processor
        duration = self.windows[self._index][1]
        processor.sim.schedule_callback(duration, self._boundary)

    def select(self, processor, ready):
        best = None
        for task in ready:
            if not self._eligible(task):
                continue
            if best is None or task.effective_priority > best.effective_priority:
                best = task
        return best

    def should_preempt(self, processor, running, candidate):
        if not self._eligible(candidate):
            return False
        if not self._eligible(running):
            return True  # the running task lost its window
        return candidate.effective_priority > running.effective_priority

    # ------------------------------------------------------------------
    # Boundary rotation
    # ------------------------------------------------------------------
    def _boundary(self) -> None:
        self.boundary_count += 1
        self._index = (self._index + 1) % len(self.windows)
        processor = self._processor
        running = processor.running
        if running is not None and not self._eligible(running):
            best = self.select(processor, processor.ready_tasks)
            processor.request_preempt(running, best)
        else:
            # an idle CPU (or an eligible runner) may now have newly
            # eligible ready work to dispatch or preempt with
            processor.poke()
        duration = self.windows[self._index][1]
        processor.sim.schedule_callback(duration, self._boundary)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(
            f"{p}:{format_time(d)}" for p, d in self.windows
        )
        return f"<TimePartitionPolicy [{parts}]>"


# Registered here (not in the policies module, which this module
# imports); ``repro.rtos`` imports this module eagerly, so POLICIES is
# complete once any ``repro.rtos`` module is.  The builder accepts
# {"policy": "time_partition", "windows": [["flight", "5ms"], ...]}.
POLICIES[TimePartitionPolicy.name] = TimePartitionPolicy

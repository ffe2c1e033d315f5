"""Task control blocks: the RTOS-side representation of a function.

Mapping a :class:`~repro.mcse.function.Function` onto a processor creates
a :class:`Task` that carries everything the RTOS needs: the scheduling
priority, the state machine, the grant/preempt events of the paper's §4,
the per-job deadline used by dynamic policies, and the counters behind
the Figure-8 statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..kernel.event import Event
from ..kernel.process import WaitEvents
from ..kernel.time import Time
from ..trace.records import TaskState
from .states import ALLOWED_TRANSITIONS, check_transition

if TYPE_CHECKING:  # pragma: no cover
    from ..mcse.function import Function
    from .processor import ProcessorBase


class Task:
    """The RTOS task wrapping a mapped function."""

    def __init__(
        self,
        processor: "ProcessorBase",
        function: "Function",
        priority: Optional[int] = None,
    ) -> None:
        self.processor = processor
        self.function = function
        self.name = function.name
        #: Static priority (larger = more urgent).
        self.base_priority = function.priority if priority is None else priority
        #: Base priority, possibly boosted by priority inheritance; a
        #: plain attribute every priority policy reads, kept in sync by
        #: the :attr:`inherited_priority` setter.
        self.effective_priority: int = self.base_priority
        self._inherited_priority: Optional[int] = None
        # --- grant/preempt plumbing (paper §4: TaskRun / TaskPreempt) ---
        sim = processor.sim
        self.run_event = Event(sim, f"{self.name}.TaskRun")
        self.preempt_event = Event(sim, f"{self.name}.TaskPreempt")
        #: The wait of an execute slice, ``wait_any(TaskPreempt,
        #: timeout=slice)``; the execute loop sets its timeout per slice.
        self.slice_wait = WaitEvents((self.preempt_event,), "any")
        #: Resume handshake used by the threaded engine's RTOS calls.
        self.resume_event = Event(sim, f"{self.name}.TaskResume")
        self.resumed = False
        #: Memory for a grant issued before the thread waits on run_event.
        self.granted = False
        #: Memory for a preempt request issued outside an execute window.
        self.preempt_pending = False
        #: Name of the task that triggered the pending preemption, if known.
        self.preempted_by: Optional[str] = None
        #: How the pending grant charges overheads ("switch" or "from_idle").
        self.grant_kind = "switch"
        # --- dynamic-policy data ----------------------------------------
        #: The relation this task is currently blocked on, or None
        #: (drives transitive priority inheritance).
        self.blocked_on = None
        #: Absolute deadline of the current job (EDF/LLF), or None.
        self.absolute_deadline: Optional[Time] = None
        #: Remaining work of the execute in progress (LLF), or None.
        self.remaining_budget: Optional[Time] = None
        # --- SMP (scheduling domains) -------------------------------------
        #: Processor names this task may run on, or None for "anywhere".
        self.affinity: Optional[tuple] = getattr(function, "affinity", None)
        #: Set by a domain migration; charges the migration overhead on
        #: the target core just before the next context load.
        self.migration_pending = False
        # --- statistics ---------------------------------------------------
        self.dispatch_count = 0
        self.cpu_time: Time = 0
        self.migration_count = 0
        self._timeslice_handle = None

    # ------------------------------------------------------------------
    # Priority
    # ------------------------------------------------------------------
    @property
    def inherited_priority(self) -> Optional[int]:
        """Transient boost from priority inheritance, or None."""
        return self._inherited_priority

    @inherited_priority.setter
    def inherited_priority(self, value: Optional[int]) -> None:
        self._inherited_priority = value
        self.effective_priority = (
            self.base_priority if value is None
            else max(self.base_priority, value)
        )

    @property
    def priority(self) -> int:
        return self.base_priority

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    @property
    def state(self) -> Optional[TaskState]:
        return self.function.state

    def set_state(self, state: TaskState, reason: Optional[str] = None) -> None:
        """Transition the task, enforcing the Figure-2/4 state machine."""
        function = self.function
        current = function.state
        if current is not None and state not in ALLOWED_TRANSITIONS[current]:
            check_transition(self.name, current, state)  # raises
        function._set_state(state, reason)

    @property
    def preempted_count(self) -> int:
        return self.function.preempted_count

    @property
    def preempted_time(self) -> Time:
        return self.function.preempted_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = self.state.value if self.state else "unstarted"
        return f"<Task {self.name} prio={self.effective_priority} {state}>"


__all__ = ["Task", "ALLOWED_TRANSITIONS", "check_transition"]

"""Online deadline watchdogs: detect misses *during* the simulation.

Post-hoc constraints (:mod:`repro.trace.constraints`) judge a trace
after the run; a :class:`DeadlineWatchdog` reacts at the moment a
deadline expires, like a hardware watchdog or a kernel deadline monitor
would -- so a model can simulate *recovery* (shed load, reset a task,
switch modes), not just observe failure.

It watches the task's state records through the simulator's observer
hook: an *activation* (Ready entered by wakeup/timer/creation) arms a
kernel timer at ``activation + deadline``; a *completion* (any Waiting
state or termination) disarms it; expiry invokes ``on_miss`` at the
exact deadline instant, from a kernel callback (outside any task).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..errors import RTOSError
from ..kernel.simulator import Simulator
from ..kernel.time import Time
from ..trace.records import (
    ACTIVATION_REASONS,
    COMPLETION_STATES,
    MarkerRecord,
    StateRecord,
    TaskState,
)


# Enum member as a module global: on 3.11 reading one off its class
# goes through EnumType.__getattr__, several times slower.
_READY = TaskState.READY


class DeadlineWatchdog:
    """Arm a timer per activation of ``task_name``; fire on expiry.

    Parameters
    ----------
    on_miss:
        ``on_miss(watchdog, activation_time)`` invoked at the deadline
        instant.  Optional; misses are always counted and marked in the
        trace either way.
    """

    def __init__(
        self,
        sim: Simulator,
        task_name: str,
        deadline: Time,
        *,
        on_miss: Optional[Callable] = None,
    ) -> None:
        if deadline <= 0:
            raise RTOSError(f"watchdog deadline must be positive: {deadline}")
        self.sim = sim
        self.task_name = task_name
        self.deadline = deadline
        self.on_miss = on_miss
        self.miss_count = 0
        self.activation_count = 0
        #: Activation times that missed (for reporting).
        self.missed_activations: List[Time] = []
        self._armed_handle = None
        self._activation_time: Optional[Time] = None
        self._enabled = True
        sim.add_observer(self._observe)

    # ------------------------------------------------------------------
    def disable(self) -> None:
        """Stop watching (pending timer is disarmed)."""
        self._enabled = False
        self._disarm()
        self.sim.remove_observer(self._observe)

    @property
    def armed(self) -> bool:
        return self._armed_handle is not None

    # ------------------------------------------------------------------
    def _observe(self, record) -> None:
        if not self._enabled or not isinstance(record, StateRecord):
            return
        if record.task != self.task_name:
            return
        if (record.state is _READY
                and record.reason in ACTIVATION_REASONS):
            if self._armed_handle is None:
                self.activation_count += 1
                self._activation_time = record.time
                self._armed_handle = self.sim.schedule_callback(
                    self.deadline, self._expired
                )
        elif record.state in COMPLETION_STATES:
            self._disarm()

    def _disarm(self) -> None:
        if self._armed_handle is not None:
            self._armed_handle.cancelled = True
            self._armed_handle = None
            self._activation_time = None

    def _expired(self) -> None:
        if self._armed_handle is None:  # disarmed at the same instant
            return
        activation = self._activation_time
        self._armed_handle = None
        self._activation_time = None
        self.miss_count += 1
        self.missed_activations.append(activation)
        emit = self.sim._emit
        if emit is not None:
            emit(MarkerRecord(
                self.sim.now,
                f"deadline_miss({self.task_name})",
                self.task_name,
            ))
        if self.on_miss is not None:
            self.on_miss(self, activation)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<DeadlineWatchdog {self.task_name} "
            f"misses={self.miss_count}/{self.activation_count}>"
        )

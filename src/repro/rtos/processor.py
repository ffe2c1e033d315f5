"""The Processor: a CPU executing mapped functions under the RTOS model.

This base class holds everything the paper's two implementation
techniques share -- the ready queue, the pluggable scheduling policy, the
preemptive/non-preemptive mode (switchable during simulation, §3.1), the
three-component overhead model (§3.2) and the statistics counters -- while
the engine subclasses decide *who executes* the RTOS logic:

* :class:`~repro.rtos.procedural.ProceduralProcessor` (§4.2): RTOS
  procedures run inside the calling task's thread (plus kernel callbacks
  for wakeups from idle).  Fewer process switches; the default.
* :class:`~repro.rtos.threaded.ThreadedProcessor` (§4.1): a dedicated
  RTOS thread performs all scheduling work, tasks communicate with it
  through events.

Timing semantics (identical across engines, asserted by tests):

=============================  ==========================================
RTOS action                    overhead charged
=============================  ==========================================
task blocks / is preempted     context-save + scheduling, then the next
                               task pays context-load
task terminates                scheduling only (+ next task's load)
wake from idle CPU             scheduling (+ woken task's load)
running task wakes a local     scheduling, inline in the caller (the
task without preemption        paper's Figure-6 case (c))
running task wakes a local     scheduling + context-save inline, then
task that preempts it          the preemptor pays context-load (Fig 6 (b))
=============================  ==========================================
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ModelError, RTOSError
from ..kernel.module import Module
from ..kernel.simulator import Simulator
from ..kernel.time import Time
from ..mcse.function import Function
from ..trace.records import (
    OverheadKind,
    OverheadRecord,
    PreemptionRecord,
    TaskState,
)
from .overheads import Overheads
from .policies import SchedulingPolicy, make_policy
from .tcb import Task


# Enum members as module globals: on 3.11 reading one off its class
# goes through EnumType.__getattr__, several times slower.
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING


class ProcessorBase(Module):
    """Common state and decision logic of both RTOS engines."""

    #: Engine label ("procedural" / "threaded").
    engine = "base"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        policy: Union[str, SchedulingPolicy, None] = None,
        overheads: Optional[Overheads] = None,
        scheduling_duration: Union[int, object] = 0,
        context_load_duration: Union[int, object] = 0,
        context_save_duration: Union[int, object] = 0,
        preemptive: bool = True,
        speed: float = 1.0,
        parent: Optional[Module] = None,
        **policy_kwargs,
    ) -> None:
        super().__init__(sim, name, parent)
        self.policy = make_policy(policy, **policy_kwargs)
        self.policy.on_attach(self)
        if overheads is not None:
            if (scheduling_duration or context_load_duration
                    or context_save_duration):
                raise RTOSError(
                    "pass either an Overheads object or the individual "
                    "duration arguments, not both"
                )
            self.overheads = overheads
        else:
            self.overheads = Overheads(
                scheduling=scheduling_duration,
                context_load=context_load_duration,
                context_save=context_save_duration,
            )
        self.preemptive = preemptive
        if speed <= 0:
            raise RTOSError(f"processor speed must be positive: {speed}")
        #: Relative clock rate: execute budgets are divided by this, so
        #: the same functional model can be dropped onto a faster or
        #: slower core ("the effect of processor change", paper §6).
        self.speed = speed
        self.tasks: List[Task] = []
        self.running: Optional[Task] = None
        self._ready: List[Task] = []
        self._scheduling_in_progress = False
        self._local_decision: Optional[str] = None
        self._timeslice_handle = None
        #: Owning :class:`~repro.smp.SchedulingDomain`, or None when this
        #: processor dispatches independently (the single-core paper model).
        self.domain = None
        # --- statistics --------------------------------------------------
        self.dispatch_count = 0
        self.preemption_count = 0
        self.migration_count = 0
        self.overhead_time: Time = 0

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def map(self, function: Function, priority: Optional[int] = None) -> Task:
        """Map ``function`` onto this processor as an RTOS task.

        Must happen before the function starts executing (i.e. before the
        simulation reaches its start time).
        """
        if function.task is not None:
            raise ModelError(
                f"function {function.name!r} is already mapped on "
                f"{function.task.processor.name!r}"
            )
        if function.state is not None:
            raise ModelError(
                f"function {function.name!r} already started; map before "
                "running the simulation"
            )
        task = Task(self, function, priority)
        function.task = task
        function.context = self._make_context()
        self.tasks.append(task)
        return task

    def _make_context(self):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ready_tasks(self) -> Tuple[Task, ...]:
        return tuple(self._ready)

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    def scale_duration(self, duration: Time) -> Time:
        """Nominal compute budget -> cycles on this core's clock."""
        if self.speed == 1.0:
            return duration
        return max(1, round(duration / self.speed)) if duration else 0

    def utilization(self) -> float:
        """Fraction of elapsed time spent on task code or RTOS overhead."""
        now = self.sim.now
        if now == 0:
            return 0.0
        busy = self.overhead_time + sum(t.cpu_time for t in self.tasks)
        return busy / now

    def overhead_ratio(self) -> float:
        """Fraction of elapsed time spent inside the RTOS itself."""
        now = self.sim.now
        return self.overhead_time / now if now else 0.0

    # ------------------------------------------------------------------
    # Mode control (paper §3.1: switchable during the simulation)
    # ------------------------------------------------------------------
    def set_preemptive(self, flag: bool) -> None:
        """Switch preemptive mode; used to model critical regions.

        Re-enabling preemption immediately reconsiders the ready queue: a
        higher-priority task that arrived during the non-preemptive
        region preempts the running task right away.
        """
        was = self.preemptive
        self.preemptive = bool(flag)
        if self.preemptive and not was and self.running is not None:
            best = self.scheduling_policy(tuple(self._ready))
            if best is not None and self.policy.should_preempt(
                self, self.running, best
            ):
                self.request_preempt(self.running, best)

    # ------------------------------------------------------------------
    # The overridable policy hook (paper §3.1)
    # ------------------------------------------------------------------
    def scheduling_policy(self, ready: Sequence[Task]) -> Optional[Task]:
        """Select the next task to run among ``ready``.

        Default: delegate to the policy object.  Subclass the processor
        and override this method to implement an application-specific
        algorithm, as the paper suggests.

        When a :attr:`Simulator.choice_controller` is installed (model
        checking, :mod:`repro.verify`), equally eligible tasks -- as
        reported by the policy's ``tie_candidates`` -- become an explored
        branch point instead of the implicit FIFO tie-break.
        """
        chosen = self.policy.select(self, ready)
        controller = self.sim.choice_controller
        if controller is not None and chosen is not None:
            candidates = self.policy.tie_candidates(self, ready, chosen)
            if len(candidates) > 1:
                index = controller.choose(
                    "tie", self.name, len(candidates),
                    labels=tuple(t.name for t in candidates),
                )
                chosen = candidates[index]
        return chosen

    # ------------------------------------------------------------------
    # Readiness and scheduling decisions
    # ------------------------------------------------------------------
    def make_ready(self, task: Task, reason: str = "woken") -> None:
        """``task`` enters the Ready state; run the decision logic.

        This is the model's ``TaskIsReady`` (paper §4.2): called from
        whatever execution context caused the readiness -- the running
        task itself (RTOS call), a task or HW function elsewhere, an
        interrupt callback, or a timer.
        """
        if task.processor is not self:
            raise RTOSError(
                f"task {task.name!r} belongs to {task.processor.name!r}, "
                f"not {self.name!r}"
            )
        if self.domain is not None:
            self.domain.task_ready(task, reason)
            return
        self._admit_ready(task, reason)

    def _admit_ready(self, task: Task, reason: str) -> None:
        """Queue ``task`` locally and run this core's decision logic.

        The dispatch seam shared by standalone processors and scheduling
        domains: domains pick a target core, then admit through here so
        preemption/idle-wake handling stays in one code path.
        """
        task.set_state(_READY, reason)
        self._ready.append(task)
        self._reschedule(task)

    def _reschedule(self, candidate: Task) -> None:
        running = self.running
        current = self.sim.current_process
        if (
            running is not None
            and current is not None
            and current is running.function.process
        ):
            # The running task itself performed the wake: the decision is
            # charged inline by its after_signal hook (cases (b)/(c)).
            if self.preemptive and self.policy.should_preempt(
                self, running, candidate
            ):
                self._local_decision = "preempt"
            elif self._local_decision is None:
                self._local_decision = "schedule_only"
            return
        self._external_wake(candidate)

    def _external_wake(self, candidate: Task) -> None:
        """Engine-specific handling of a wake from outside the CPU."""
        raise NotImplementedError

    def _take_local_decision(self) -> Optional[str]:
        decision = self._local_decision
        self._local_decision = None
        return decision

    def poke(self) -> None:
        """Re-run the scheduling decision without a new readiness event.

        Used by policies whose eligibility changes over time (e.g. time
        partitions): an idle CPU whose ready queue just became eligible
        gets a dispatch, and a running task that lost eligibility can be
        preempted by the policy's ``should_preempt``.
        """
        if self._scheduling_in_progress:
            return
        best = self.scheduling_policy(tuple(self._ready))
        if best is None:
            return
        if self.running is None:
            self._external_wake(best)
        elif self.preemptive and self.policy.should_preempt(
            self, self.running, best
        ):
            self.request_preempt(self.running, best)

    def request_preempt(self, running: Task, by: Optional[Task] = None) -> None:
        """Ask the running task to relinquish the CPU (``TaskPreempt``)."""
        if running.preempt_pending:
            return
        running.preempt_pending = True
        running.preempted_by = by.name if by is not None else None
        running.preempt_event.notify()

    # ------------------------------------------------------------------
    # Dispatch helpers used by the engines
    # ------------------------------------------------------------------
    def _release_cpu(self, task: Task) -> None:
        if self.running is not task:
            raise RTOSError(
                f"task {task.name!r} releasing CPU it does not hold "
                f"(running={self.running!r})"
            )
        self.running = None
        self._scheduling_in_progress = True
        task.preempt_pending = False
        self.policy.on_undispatch(self, task)

    def _select_and_remove(self) -> Optional[Task]:
        if self.domain is not None:
            return self.domain.select_for(self)
        return self._select_and_remove_local()

    def _select_and_remove_local(self) -> Optional[Task]:
        chosen = self.scheduling_policy(tuple(self._ready))
        if chosen is not None:
            try:
                self._ready.remove(chosen)
            except ValueError:
                raise RTOSError(
                    f"scheduling_policy returned {chosen.name!r}, which is "
                    "not in the ready queue"
                ) from None
        return chosen

    def _dispatch_next(self) -> None:
        """Pick and grant the next task; called after overheads are paid."""
        self._scheduling_in_progress = False
        chosen = self._select_and_remove()
        if chosen is None:
            return  # CPU goes idle
        self._grant(chosen)

    def _grant(self, task: Task) -> None:
        if self.running is not None:  # invariant: grants are exclusive
            raise RTOSError(
                f"granting {task.name!r} while {self.running.name!r} holds "
                f"the CPU"
            )
        self.running = task
        self.dispatch_count += 1
        task.dispatch_count += 1
        task.granted = True
        task.run_event.notify()

    def _on_task_running(self, task: Task) -> None:
        """Called by the task's thread once its context load completed."""
        task.set_state(_RUNNING)
        self.policy.on_dispatch(self, task)

    def _record_preemption(self, task: Task) -> None:
        self.preemption_count += 1
        emit = self.sim._emit
        if emit is not None:
            emit(PreemptionRecord(
                self.sim.now,
                self.name,
                preempted=task.name,
                preempting=task.preempted_by or "?",
            ))

    # ------------------------------------------------------------------
    # Overhead accounting
    # ------------------------------------------------------------------
    def _overhead(self, kind: OverheadKind, task: Optional[Task] = None) -> Time:
        """Resolve one overhead component, record it, return its duration."""
        overheads = self.overheads
        duration = overheads._by_kind[kind]
        if duration.__class__ is not int:
            duration = overheads._resolve(duration, self)  # a formula
        if duration:
            self.overhead_time += duration
            sim = self.sim
            emit = sim._emit
            if emit is not None:
                emit(OverheadRecord(
                    sim.now, self.name, kind, duration,
                    task.name if task else None,
                ))
        return duration

    # ------------------------------------------------------------------
    # Time slices (used by round-robin policies)
    # ------------------------------------------------------------------
    def arm_timeslice(self, task: Task, duration: Time) -> None:
        self.disarm_timeslice()
        self._timeslice_handle = self.sim.schedule_callback(
            duration, lambda: self._timeslice_expired(task)
        )

    def disarm_timeslice(self) -> None:
        if self._timeslice_handle is not None:
            self._timeslice_handle.cancelled = True
            self._timeslice_handle = None

    def _timeslice_expired(self, task: Task) -> None:
        if self.running is task and self.policy.on_timeslice(self, task):
            self.request_preempt(task)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Summary counters for reports and benchmarks."""
        return {
            "processor": self.name,
            "engine": self.engine,
            "policy": self.policy.name,
            "tasks": len(self.tasks),
            "dispatches": self.dispatch_count,
            "preemptions": self.preemption_count,
            "migrations": self.migration_count,
            "overhead_time": self.overhead_time,
            "utilization": self.utilization(),
            "domain": self.domain.name if self.domain is not None else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        running = self.running.name if self.running else "idle"
        return (
            f"<{type(self).__name__} {self.name} {self.policy.name} "
            f"running={running} ready={len(self._ready)}>"
        )

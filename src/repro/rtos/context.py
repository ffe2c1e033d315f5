"""The RTOS execution context shared by both engine implementations.

This translates a mapped function's primitive operations into the task
scheduling protocol of the paper's §4.  The *time-accurate preemption*
mechanism -- the paper's improvement over clock-quantum models [1] -- lives
in :meth:`RTOSContext.execute`: an executing task waits on

    ``wait_any(TaskPreempt, timeout=remaining_budget)``

so a hardware event can interrupt the computation at its *exact*
occurrence time, after which the remaining budget is recomputed from the
current simulated time.  No clock, no quantum, zero preemption-latency
error.

Engine-specific pieces (who pays the save/scheduling overheads and how
the next task is dispatched) are the two hooks ``_relinquish`` and
``_self_preempt`` implemented by the procedural (§4.2) and threaded
(§4.1) subclasses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..errors import ProcessKilled
from ..kernel.process import WaitEvents
from ..kernel.time import Time
from ..mcse.context import ExecutionContext
from ..mcse.relations import Relation, Waiter
from ..trace.records import OverheadKind, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..mcse.function import Function
    from .processor import ProcessorBase
    from .tcb import Task


class RTOSContext(ExecutionContext):
    """Base RTOS mapping of function operations (engine-agnostic parts)."""

    kind = "rtos"

    def __init__(self, processor: "ProcessorBase") -> None:
        self.processor = processor

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def _relinquish(self, task: "Task", *, save: bool) -> Generator:
        """Give up the CPU: pay save (+scheduling) and dispatch the next
        task.  The caller has already set the task's new state."""
        raise NotImplementedError

    def _self_preempt(self, task: "Task", *, pay_sched: bool) -> Generator:
        """The running task preempts itself in favour of a better-ready
        task, then waits to be granted the CPU again."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared protocol pieces
    # ------------------------------------------------------------------
    def _await_grant(self, task: "Task") -> Generator:
        """Wait until the RTOS grants the CPU, then pay the context load."""
        if not task.granted:
            yield task.run_event
        task.granted = False
        # Read the processor *after* the grant: a scheduling domain may
        # have migrated the task to another core while it was ready.
        cpu = self.processor
        if cpu.running is not task:  # invariant guard: grants are exclusive
            from ..errors import RTOSError

            raise RTOSError(
                f"task {task.name!r} resumed without holding the CPU "
                f"(running={cpu.running!r})"
            )
        if task.migration_pending:
            task.migration_pending = False
            cost = cpu._overhead(OverheadKind.MIGRATION, task)
            if cost:
                yield cost
        load = cpu._overhead(OverheadKind.CONTEXT_LOAD, task)
        if load:
            yield load
        cpu._on_task_running(task)

    # ------------------------------------------------------------------
    # ExecutionContext interface
    # ------------------------------------------------------------------
    def run(self, function: "Function") -> Generator:
        cpu = self.processor
        task = function.task
        task.set_state(TaskState.CREATED)
        cpu.make_ready(task, reason="created")
        yield from self._await_grant(task)
        try:
            yield from function.behavior()
        except ProcessKilled:
            # kernel-level kill: free the CPU instantly (no RTOS cost).
            # Re-read the processor: migrations may have moved the task
            # since it was first mapped.
            cpu = task.processor
            if task.state is TaskState.RUNNING:
                cpu._release_cpu(task)
                task.set_state(TaskState.TERMINATED)
                cpu.sim.schedule_delta_callback(cpu._dispatch_next)
            raise
        # normal completion: the RTOS terminates the task (paper case (a))
        cpu = task.processor
        if task.state is TaskState.RUNNING:
            cpu._release_cpu(task)
            task.set_state(TaskState.TERMINATED)
            yield from self._relinquish(task, save=False)

    def execute(self, function: "Function", duration: Time) -> Generator:
        """Consume CPU time; preemptible at exact event times.

        ``duration`` is the nominal compute budget; the processor's
        ``speed`` scales it onto this core's clock.
        """
        cpu = self.processor
        task = function.task
        duration = cpu.scale_duration(duration)
        if duration == 0:
            if task.preempt_pending:
                yield from self._self_preempt(task, pay_sched=True)
            return
        remaining = duration
        task.remaining_budget = remaining
        preempt = (task.preempt_event,)
        while remaining > 0:
            if task.preempt_pending:
                yield from self._self_preempt(task, pay_sched=True)
                continue
            start = cpu.sim.now
            fired = yield WaitEvents(preempt, "any", remaining)
            elapsed = cpu.sim.now - start
            remaining -= elapsed
            task.cpu_time += elapsed
            task.remaining_budget = remaining
            if fired is not None and remaining > 0:
                # preempted mid-slice at the exact disturbance time
                yield from self._self_preempt(task, pay_sched=True)
            # a preempt arriving at the very instant the slice completed
            # is left pending: the task's next RTOS call honors it after
            # zero simulated time (the work was already done)
        task.remaining_budget = None

    def block(self, function: "Function", waiter: Waiter,
              relation: Relation, timeout: Optional[Time] = None) -> Generator:
        cpu = self.processor
        task = function.task
        state = (
            TaskState.WAITING_RESOURCE if relation.resource else TaskState.WAITING
        )
        timer = None
        if timeout is not None:
            # Bounded wait: an independent RTOS timer (same mechanism as
            # :meth:`delay`) withdraws the undelivered waiter on expiry
            # and puts the task back in the ready queue empty-handed.
            def timeout_fired() -> None:
                if waiter.delivered or task.blocked_on is not relation:
                    return
                relation.withdraw(waiter)
                task.processor.make_ready(task, reason="timeout")

            timer = cpu.sim.schedule_callback(timeout, timeout_fired)
        cpu._release_cpu(task)
        task.blocked_on = relation
        task.set_state(state, reason="blocked")
        yield from self._relinquish(task, save=True)
        # delivery makes the task Ready; the grant hands it the CPU back
        yield from self._await_grant(task)
        task.blocked_on = None
        if timer is not None:
            # A delivered wait revokes its pending timer so the stale
            # entry cannot keep an otherwise-finished simulation alive.
            timer.cancelled = True
        return waiter.value

    def delay(self, function: "Function", duration: Time) -> Generator:
        cpu = self.processor
        task = function.task

        # The RTOS timer is an independent kernel entity armed at call
        # time (not a wait inside this thread): a timer expiring while
        # the context-switch overheads are still in flight then lands in
        # the ready queue before the election, identically on both
        # engines.
        def timer_fired() -> None:
            if task.state is TaskState.WAITING:
                task.processor.make_ready(task, reason="timer")

        cpu.sim.schedule_callback(duration, timer_fired)
        cpu._release_cpu(task)
        task.set_state(TaskState.WAITING, reason="delay")
        yield from self._relinquish(task, save=True)
        yield from self._await_grant(task)

    def on_deliver(self, function: "Function", waiter: Waiter) -> None:
        task = function.task
        task.processor.make_ready(task, reason="woken")

    def after_signal(self, function: "Function",
                     relation: Relation) -> Generator:
        """Pay the local scheduling cost of an operation that woke a task
        on this CPU (paper Figure 6, cases (b) and (c))."""
        cpu = self.processor
        task = function.task
        decision = cpu._take_local_decision()
        if decision is None:
            return
        yield from self._sched_pass(task, preempt=(decision == "preempt"))

    def _sched_pass(self, task: "Task", *, preempt: bool) -> Generator:
        """Engine hook: charge one scheduling pass, optionally switching."""
        raise NotImplementedError

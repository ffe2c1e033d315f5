"""The procedure-call RTOS engine (paper §4.2) -- the default.

No RTOS thread exists.  The RTOS is a passive object whose "primitives"
run inside the calling task's simulation thread, exactly as a real RTOS
runs inside the caller of a system call:

* ``TaskIsBlocked``  -> :meth:`ProceduralContext._relinquish`
  (the blocking task's thread pays context-save + scheduling, then
  notifies the elected task with its ``TaskRun`` event);
* ``TaskIsPreempted`` -> :meth:`ProceduralContext._self_preempt`
  (the preempted task's thread computes the remaining time of the
  current operation, pays the switch overheads, elects the successor);
* ``TaskIsReady``    -> :meth:`ProceduralProcessor._external_wake`
  (decision logic run synchronously by whoever caused the readiness).

The only wakeups with no task thread to run on -- a ready event arriving
while the CPU is idle -- are handled by a kernel callback chain that
models the RTOS scheduling pass without any extra simulation thread, so
the engine's process-switch count stays minimal (the paper's motivation
for this technique).
"""

from __future__ import annotations

from typing import Generator

from ..trace.records import OverheadKind, TaskState
from .context import RTOSContext
from .processor import ProcessorBase
from .tcb import Task


# Enum members as module globals: on 3.11 reading one off its class
# goes through EnumType.__getattr__, several times slower.
_READY = TaskState.READY
_CONTEXT_SAVE = OverheadKind.CONTEXT_SAVE
_SCHEDULING = OverheadKind.SCHEDULING


class ProceduralContext(RTOSContext):
    """Task-side RTOS primitives executed in the task's own thread."""

    def _relinquish(self, task: Task, *, save: bool) -> Generator:
        cpu = self.processor
        if save:
            duration = cpu._overhead(_CONTEXT_SAVE, task)
            if duration:
                yield duration
        duration = cpu._overhead(_SCHEDULING)
        if duration:
            yield duration
        # settle one delta so every task becoming ready at this instant is
        # visible to the election (scheduling uses the *current* state)
        yield 0
        cpu._dispatch_next()

    def _self_preempt(self, task: Task, *, pay_sched: bool) -> Generator:
        cpu = self.processor
        cpu._release_cpu(task)
        task.set_state(_READY, reason="preempted")
        cpu._record_preemption(task)
        cpu._ready.append(task)
        if cpu.domain is not None:
            # a global/clustered domain may resume the victim immediately
            # on an idle sibling core instead of queueing it here
            cpu.domain.task_preempted(task)
        duration = cpu._overhead(_CONTEXT_SAVE, task)
        if duration:
            yield duration
        if pay_sched:
            duration = cpu._overhead(_SCHEDULING)
            if duration:
                yield duration
        yield 0  # settle same-instant arrivals before electing
        cpu._dispatch_next()
        yield from self._await_grant(task)

    def _sched_pass(self, task: Task, *, preempt: bool) -> Generator:
        cpu = self.processor
        duration = cpu._overhead(_SCHEDULING)
        if duration:
            yield duration
        if preempt:
            yield from self._self_preempt(task, pay_sched=False)


class ProceduralProcessor(ProcessorBase):
    """Processor whose RTOS runs as procedure calls in task threads."""

    engine = "procedural"

    def _make_context(self) -> ProceduralContext:
        return ProceduralContext(self)

    def _external_wake(self, candidate: Task) -> None:
        if self._scheduling_in_progress:
            # a scheduling pass is already in flight; its election will
            # consider this candidate (it is in the ready queue)
            return
        if self.running is None:
            self._begin_idle_dispatch()
            return
        if self.preemptive and self.policy.should_preempt(
            self, self.running, candidate
        ):
            self.request_preempt(self.running, candidate)

    # ------------------------------------------------------------------
    # Wake-from-idle: a scheduling pass modelled by a callback chain
    # ------------------------------------------------------------------
    def _begin_idle_dispatch(self) -> None:
        self._scheduling_in_progress = True
        duration = self._overhead(_SCHEDULING)
        self.sim.schedule_callback(duration, self._finish_idle_dispatch)

    def _finish_idle_dispatch(self) -> None:
        # defer the election to the delta phase so every same-instant
        # wakeup (processed in the evaluate phase) is visible to it
        self.sim.schedule_delta_callback(self._dispatch_next)

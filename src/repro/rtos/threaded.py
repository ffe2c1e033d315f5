"""The dedicated-RTOS-thread engine (paper §4.1).

The RTOS behaviour is modelled by its own simulation thread, woken by an
``RTKRun`` event.  Tasks notify the RTOS thread whenever they enter or
leave the Waiting state; the RTOS thread pays the overheads, runs the
scheduling algorithm, and activates the elected task with its ``TaskRun``
event (paper Figures 2 and 3).

The simulated *timing* is identical to the procedural engine -- the same
overhead amounts are charged at the same instants, which the test suite
asserts by comparing full traces.  The *cost* differs: every RTOS action
needs extra simulation-thread switches (task -> RTOS -> task), which is
exactly the inefficiency the paper measured and the reason it proposes
the procedure-call technique.  The benchmark
``benchmarks/bench_impl_comparison.py`` reproduces that comparison.
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from ..kernel.event import Event
from ..trace.records import OverheadKind, TaskState
from .context import RTOSContext
from .processor import ProcessorBase
from .tcb import Task


# Enum members as module globals: on 3.11 reading one off its class
# goes through EnumType.__getattr__, several times slower.
_READY = TaskState.READY
_SCHEDULING = OverheadKind.SCHEDULING
_CONTEXT_SAVE = OverheadKind.CONTEXT_SAVE


class ThreadedContext(RTOSContext):
    """Task-side protocol: every RTOS action is shipped to the RTOS thread."""

    def _relinquish(self, task: Task, *, save: bool) -> Generator:
        self.processor._post(("release", task, bool(save)))
        return
        yield  # pragma: no cover - makes this a generator function

    def _self_preempt(self, task: Task, *, pay_sched: bool) -> Generator:
        cpu = self.processor
        cpu._release_cpu(task)
        task.set_state(_READY, reason="preempted")
        cpu._record_preemption(task)
        cpu._ready.append(task)
        # the RTOS thread pays save (+ scheduling) and elects the next task
        if pay_sched:
            cpu._post(("release", task, True))
        else:
            cpu._post(("switch_no_sched", task))
        yield from self._await_grant(task)

    def _sched_pass(self, task: Task, *, preempt: bool) -> Generator:
        cpu = self.processor
        if preempt:
            # scheduling first (the decision), then the context switch
            cpu._post(("sched_then_preempt", task))
            yield from self._await_grant(task)
        else:
            task.resumed = False
            cpu._post(("sched_resume", task))
            if not task.resumed:
                yield task.resume_event
            task.resumed = False


class ThreadedProcessor(ProcessorBase):
    """Processor whose RTOS behaviour runs in a dedicated thread."""

    engine = "threaded"

    def __init__(self, sim, name, **kwargs) -> None:
        super().__init__(sim, name, **kwargs)
        #: The RTKRun event of the paper's Figure 2.
        self.rtk_run = Event(sim, f"{self.name}.RTKRun")
        self._requests: List[Tuple] = []
        self._rtos_process = sim.thread(self._rtos_thread, name=f"{self.name}.rtos")
        self._rtos_process.daemon = True

    def _make_context(self) -> ThreadedContext:
        return ThreadedContext(self)

    def _external_wake(self, candidate: Task) -> None:
        self._post(("wake", candidate))

    # ------------------------------------------------------------------
    # Request queue
    # ------------------------------------------------------------------
    def _post(self, request: Tuple) -> None:
        self._requests.append(request)
        self._scheduling_in_progress = True
        self.rtk_run.notify()

    def _rtos_thread(self) -> Generator:
        while True:
            if not self._requests:
                yield self.rtk_run
                continue
            request = self._requests.pop(0)
            yield from self._handle(request)
            self._scheduling_in_progress = bool(self._requests)

    def _charge(self, kind: OverheadKind, task=None) -> Generator:
        duration = self._overhead(kind, task)
        if duration:
            yield duration

    #: Request kinds whose handler will itself elect the next task; a
    #: "wake" must defer to them to keep the serialization identical to
    #: the procedural engine (and to never double-grant the CPU).
    _RELEASING = ("release", "switch_no_sched", "sched_then_preempt")

    def _release_pending(self) -> bool:
        return any(req[0] in self._RELEASING for req in self._requests)

    def _handle(self, request: Tuple) -> Generator:
        kind = request[0]
        if kind == "wake":
            candidate = request[1]
            if self.running is None:
                if self._ready and not self._release_pending():
                    yield from self._charge(_SCHEDULING)
                    yield 0  # settle same-instant arrivals before electing
                    self._dispatch_next()
            elif (
                self.preemptive
                and candidate.state is _READY
                and self.policy.should_preempt(self, self.running, candidate)
            ):
                self.request_preempt(self.running, candidate)
        elif kind == "release":
            # a task left the CPU (blocked, terminated or preempted);
            # its thread already set the new state
            task, save = request[1], request[2]
            if save:
                yield from self._charge(_CONTEXT_SAVE, task)
            yield from self._charge(_SCHEDULING)
            yield 0  # settle same-instant arrivals before electing
            self._dispatch_next()
        elif kind == "switch_no_sched":
            # self-preemption whose scheduling pass was already charged
            task = request[1]
            yield from self._charge(_CONTEXT_SAVE, task)
            yield 0  # settle same-instant arrivals before electing
            self._dispatch_next()
        elif kind == "sched_then_preempt":
            # a running task's RTOS call elected a preemptor
            task = request[1]
            yield from self._charge(_SCHEDULING)
            self._release_cpu(task)
            task.set_state(_READY, reason="preempted")
            self._record_preemption(task)
            self._ready.append(task)
            yield from self._charge(_CONTEXT_SAVE, task)
            yield 0  # settle same-instant arrivals before electing
            self._dispatch_next()
        elif kind == "sched_resume":
            # a running task's RTOS call did not change the election
            task = request[1]
            yield from self._charge(_SCHEDULING)
            task.resumed = True
            task.resume_event.notify()
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown RTOS request {kind!r}")

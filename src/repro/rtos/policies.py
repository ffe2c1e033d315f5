"""Scheduling policies for the generic RTOS model (paper §3.1).

A policy answers three questions:

* :meth:`SchedulingPolicy.select` -- which ready task runs next;
* :meth:`SchedulingPolicy.should_preempt` -- does a newly ready task evict
  the running one (only consulted in preemptive mode);
* the dispatch hooks -- e.g. a round-robin policy arms a time-slice timer.

The paper ships priority-based preemptive scheduling as the default and
lets designers "define their own policies by overloading the
SchedulingPolicy method of our Processor class"; both extension paths
exist here: pass a policy object, or override
:meth:`Processor.scheduling_policy`.

Priorities: larger value = more urgent (as in the paper's Figure 6,
where priority 5 preempts priority 2).  ``effective_priority`` is used
everywhere so that priority inheritance (see
:mod:`repro.rtos.services`) composes with every priority-based policy.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Union

from ..errors import RTOSError
from ..kernel.time import Time
from ..trace.records import TaskState

if TYPE_CHECKING:  # pragma: no cover
    from .processor import ProcessorBase
    from .tcb import Task


_RUNNING = TaskState.RUNNING


class SchedulingPolicy:
    """Base class: FIFO selection, never preempts."""

    #: Registry key and display name.
    name = "base"

    def select(self, processor: "ProcessorBase",
               ready: Sequence["Task"]) -> Optional["Task"]:
        """Pick the next task to run (do not mutate ``ready``)."""
        return ready[0] if ready else None

    def should_preempt(self, processor: "ProcessorBase", running: "Task",
                       candidate: "Task") -> bool:
        """Whether ``candidate`` (just made ready) evicts ``running``."""
        return False

    def tie_candidates(self, processor: "ProcessorBase",
                       ready: Sequence["Task"],
                       chosen: "Task") -> Sequence["Task"]:
        """All ready tasks the policy considers interchangeable with
        ``chosen`` (the task :meth:`select` just picked).

        The verifier (:mod:`repro.verify`) branches the exploration over
        this set: ``select`` deterministically breaks ties by ready-queue
        (FIFO) order, but a real RTOS makes no such promise, so every
        member of this set is an admissible dispatch.  Policies whose
        tie-break *is* part of their contract (FIFO, round-robin
        rotation, seeded lottery) keep the default single-candidate
        answer.
        """
        return (chosen,)

    def on_attach(self, processor: "ProcessorBase") -> None:
        """Hook: the policy was installed on ``processor``."""

    def on_dispatch(self, processor: "ProcessorBase", task: "Task") -> None:
        """Hook: ``task`` was granted the CPU."""

    def on_undispatch(self, processor: "ProcessorBase", task: "Task") -> None:
        """Hook: ``task`` lost the CPU (blocked, preempted, terminated)."""

    def on_timeslice(self, processor: "ProcessorBase", task: "Task") -> bool:
        """Hook: ``task``'s time slice expired; True requests preemption."""
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__}>"


class FifoPolicy(SchedulingPolicy):
    """First-come first-served, run to completion (never preempts)."""

    name = "fifo"


class PriorityPreemptivePolicy(SchedulingPolicy):
    """Fixed-priority preemptive scheduling -- the RTOS industry default."""

    name = "priority_preemptive"

    def select(self, processor, ready):
        best = None
        for task in ready:
            if best is None or task.effective_priority > best.effective_priority:
                best = task  # strict '>' keeps FIFO order among equals
        return best

    def should_preempt(self, processor, running, candidate):
        return candidate.effective_priority > running.effective_priority

    def tie_candidates(self, processor, ready, chosen):
        top = chosen.effective_priority
        return tuple(t for t in ready if t.effective_priority == top)


class RoundRobinPolicy(SchedulingPolicy):
    """Priority-blind circular scheduling with a fixed time slice."""

    name = "round_robin"

    def __init__(self, time_slice: Time) -> None:
        if time_slice <= 0:
            raise RTOSError(f"time slice must be positive: {time_slice}")
        self.time_slice = time_slice

    def on_dispatch(self, processor, task):
        processor.arm_timeslice(task, self.time_slice)

    def on_undispatch(self, processor, task):
        processor.disarm_timeslice()

    def on_timeslice(self, processor, task):
        # rotate only if someone is actually waiting for the CPU
        return processor.ready_count > 0


class PriorityRoundRobinPolicy(PriorityPreemptivePolicy):
    """Priority preemptive + round-robin among equal priorities."""

    name = "priority_round_robin"

    def __init__(self, time_slice: Time) -> None:
        if time_slice <= 0:
            raise RTOSError(f"time slice must be positive: {time_slice}")
        self.time_slice = time_slice

    def on_dispatch(self, processor, task):
        processor.arm_timeslice(task, self.time_slice)

    def on_undispatch(self, processor, task):
        processor.disarm_timeslice()

    def on_timeslice(self, processor, task):
        return any(
            peer.effective_priority >= task.effective_priority
            for peer in processor.ready_tasks
        )


class EDFPolicy(SchedulingPolicy):
    """Earliest-deadline-first.

    Tasks advertise their current job's absolute deadline through
    :attr:`Task.absolute_deadline`; a task with no deadline is treated
    as infinitely lax.
    """

    name = "edf"

    @staticmethod
    def _deadline(task) -> float:
        deadline = task.absolute_deadline
        return float("inf") if deadline is None else deadline

    def select(self, processor, ready):
        best = None
        for task in ready:
            if best is None or self._deadline(task) < self._deadline(best):
                best = task
        return best

    def should_preempt(self, processor, running, candidate):
        return self._deadline(candidate) < self._deadline(running)

    def tie_candidates(self, processor, ready, chosen):
        best = self._deadline(chosen)
        return tuple(t for t in ready if self._deadline(t) == best)


class GlobalEDFPolicy(EDFPolicy):
    """EDF over a scheduling domain's shared ready pool.

    Selection and preemption rules are exactly EDF's; the separate
    registry name marks the intent (and lets analyzers apply the
    global-EDF utilization bound, RTS151, instead of the single-core
    one).  A :class:`~repro.smp.SchedulingDomain` installs one instance
    on every member core so dispatch, placement and victim selection all
    agree on the same ordering.
    """

    name = "global_edf"


class RateMonotonicPolicy(SchedulingPolicy):
    """Rate-monotonic: shorter period = more urgent.

    Periods come from the mapped function's ``period`` annotation; a
    task with no period is treated as infinitely long (least urgent).
    Priorities are implicit in the period, so RM task sets need no
    hand-assigned priorities.
    """

    name = "rm"

    @staticmethod
    def _period(task) -> float:
        period = getattr(task.function, "period", None)
        return float("inf") if period is None else period

    def select(self, processor, ready):
        best = None
        for task in ready:
            if best is None or self._period(task) < self._period(best):
                best = task  # strict '<' keeps FIFO order among equals
        return best

    def should_preempt(self, processor, running, candidate):
        return self._period(candidate) < self._period(running)

    def tie_candidates(self, processor, ready, chosen):
        best = self._period(chosen)
        return tuple(t for t in ready if self._period(t) == best)


class GlobalRMPolicy(RateMonotonicPolicy):
    """Rate-monotonic over a scheduling domain's shared ready pool."""

    name = "global_rm"


class LeastLaxityPolicy(SchedulingPolicy):
    """Least-laxity-first: laxity = deadline - now - remaining work.

    Remaining work is the task's :attr:`Task.remaining_budget`, which the
    RTOS execute path writes when a slice starts or ends.  A running
    task is inside its slice, so what is left of it is read off the
    slice's armed timeout instead.  A task without deadline or budget
    information is treated as infinitely lax.
    """

    name = "llf"

    @staticmethod
    def _laxity(processor, task) -> float:
        if task.absolute_deadline is None:
            return float("inf")
        now = processor.sim.now
        remaining = task.remaining_budget or 0
        if remaining and task.state is _RUNNING:
            timeout = task.function.process._wait_timeout
            if timeout is not None:
                remaining = timeout.time - now
        return task.absolute_deadline - now - remaining

    def select(self, processor, ready):
        best = None
        best_laxity = float("inf")
        for task in ready:
            laxity = self._laxity(processor, task)
            if best is None or laxity < best_laxity:
                best, best_laxity = task, laxity
        return best

    def should_preempt(self, processor, running, candidate):
        return self._laxity(processor, candidate) < self._laxity(
            processor, running
        )

    def tie_candidates(self, processor, ready, chosen):
        best = self._laxity(processor, chosen)
        return tuple(
            t for t in ready if self._laxity(processor, t) == best
        )


class LotteryPolicy(SchedulingPolicy):
    """Probabilistic lottery scheduling; tickets = priority + 1.

    Deterministic for a given seed, so simulations stay reproducible.
    """

    name = "lottery"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(self, processor, ready):
        if not ready:
            return None
        tickets = [max(task.effective_priority, 0) + 1 for task in ready]
        total = sum(tickets)
        draw = self._rng.uniform(0, total)
        acc = 0.0
        for task, weight in zip(ready, tickets):
            acc += weight
            if draw <= acc:
                return task
        return ready[-1]  # pragma: no cover - float edge


#: Policy registry used by the builder and the processor factory.
POLICIES: Dict[str, type] = {
    cls.name: cls
    for cls in (
        FifoPolicy,
        PriorityPreemptivePolicy,
        RoundRobinPolicy,
        PriorityRoundRobinPolicy,
        EDFPolicy,
        GlobalEDFPolicy,
        RateMonotonicPolicy,
        GlobalRMPolicy,
        LeastLaxityPolicy,
        LotteryPolicy,
    )
}


def make_policy(spec: Union[str, SchedulingPolicy, None], **kwargs) -> SchedulingPolicy:
    """Build a policy from a registry name, pass through an instance."""
    if spec is None:
        # kwargs flow through so an unexpected key raises instead of
        # being silently dropped with the implied default policy
        return PriorityPreemptivePolicy(**kwargs)
    if isinstance(spec, SchedulingPolicy):
        if kwargs:
            raise RTOSError("policy kwargs only apply to registry names")
        return spec
    try:
        cls = POLICIES[spec]
    except KeyError:
        raise RTOSError(
            f"unknown scheduling policy {spec!r}; pick one of {sorted(POLICIES)}"
        ) from None
    return cls(**kwargs)

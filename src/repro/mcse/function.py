"""MCSE functions: the tasks of the functional model.

A :class:`Function` runs a sequential *behavior* (a generator) and talks
to other functions exclusively through MCSE relations.  Its behavior
uses the function's own wrappers, all of which are generator methods to
be driven with ``yield from``::

    class Producer(Function):
        def behavior(self):
            for i in range(10):
                yield from self.execute(2 * US)      # crunch for 2us of CPU
                yield from self.write(self.out_q, i) # may block when full
                yield from self.wait(self.go)        # event synchronization

Whether those operations run concurrently (hardware) or serialized under
an RTOS is decided by the function's *execution context*, set when the
function is mapped onto a :class:`~repro.rtos.processor.Processor`.
Unmapped functions are hardware.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..errors import ModelError
from ..kernel.event import Event
from ..kernel.module import Module
from ..kernel.simulator import Simulator
from ..kernel.time import Time
from ..trace.records import AccessKind, AccessRecord, StateRecord, TaskState
from .context import HARDWARE_CONTEXT, ExecutionContext
from .events import EventFlags, EventRelation
from .queues import MessageQueue
from .shared import SharedVariable

# EnumType defines __getattr__, so reading a member off its class takes
# the slow attribute hook on 3.11; the per-state-change and per-access
# paths read module constants instead.
_READY = TaskState.READY
_WAIT = AccessKind.WAIT
_SIGNAL = AccessKind.SIGNAL
_READ = AccessKind.READ
_WRITE = AccessKind.WRITE
_LOCK = AccessKind.LOCK
_UNLOCK = AccessKind.UNLOCK


class Function(Module):
    """A task of the functional model.

    Parameters
    ----------
    behavior:
        Generator function taking this Function; alternatively subclass
        and override :meth:`behavior`.
    priority:
        Scheduling priority once mapped on a processor (larger = more
        urgent, as in the paper's Figure 6).
    start_time:
        Simulated time of the function's creation.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        behavior: Optional[Callable[["Function"], Generator]] = None,
        *,
        priority: int = 0,
        parent: Optional[Module] = None,
        start_time: Time = 0,
        auto_start: bool = True,
    ) -> None:
        super().__init__(sim, name, parent)
        self._behavior = behavior
        self.priority = priority
        self.start_time = start_time
        #: Execution context; replaced by Processor.map() for SW tasks.
        self.context: ExecutionContext = HARDWARE_CONTEXT
        #: RTOS task control block once mapped (None for HW functions).
        self.task = None
        #: Kernel event used to wake this function from relation waits.
        self.wake_event = Event(sim, f"{self.name}.wake")
        # --- state tracking -------------------------------------------
        self.state: Optional[TaskState] = None
        self._state_since: Time = 0
        self._ready_reason: Optional[str] = None
        #: Accumulated time per state (Figure-8 statistics source).
        self.state_durations = {state: 0 for state in TaskState}
        #: READY time entered specifically through preemption.
        self.preempted_time: Time = 0
        self.preempted_count = 0
        self.process = None
        if auto_start:
            self.start()

    # ------------------------------------------------------------------
    # Life cycle
    # ------------------------------------------------------------------
    def behavior(self) -> Generator:
        """The sequential algorithm of this function (override me)."""
        if self._behavior is None:
            raise ModelError(
                f"function {self.name!r} has no behavior; pass behavior= or "
                "override behavior()"
            )
        return self._behavior(self)

    def start(self):
        """Create the kernel process running this function."""
        if self.process is not None:
            raise ModelError(f"function {self.name!r} already started")
        self.process = self.sim.thread(self._bootstrap, name=f"{self.name}.proc")
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.register_function(self)
        return self.process

    def _bootstrap(self) -> Generator:
        if self.start_time > 0:
            yield self.start_time
        yield from self.context.run(self)

    @property
    def processor_name(self) -> Optional[str]:
        if self.task is not None:
            return self.task.processor.name
        return None

    # ------------------------------------------------------------------
    # State tracking
    # ------------------------------------------------------------------
    def _set_state(self, state: TaskState, reason: Optional[str] = None) -> None:
        sim = self.sim
        now = sim.now
        previous = self.state
        if previous is not None:
            elapsed = now - self._state_since
            self.state_durations[previous] += elapsed
            if previous is _READY and self._ready_reason == "preempted":
                self.preempted_time += elapsed
        if state is _READY:
            self._ready_reason = reason
            if reason == "preempted":
                self.preempted_count += 1
        else:
            self._ready_reason = None
        self.state = state
        self._state_since = now
        emit = sim._emit
        if emit is not None:
            # Resolved per record, not cached: a scheduling domain may
            # have migrated the task since the last one.
            task = self.task
            emit(StateRecord(
                now, self.name, state,
                task.processor.name if task is not None else None, reason,
            ))

    def state_ratio(self, state: TaskState, total: Optional[Time] = None) -> float:
        """Fraction of time spent in ``state`` (up to now by default)."""
        total = self.sim.now if total is None else total
        if total == 0:
            return 0.0
        duration = self.state_durations[state]
        if self.state is state:
            duration += self.sim.now - self._state_since
        return duration / total

    # ------------------------------------------------------------------
    # Primitive operations (generator methods; drive with ``yield from``)
    # ------------------------------------------------------------------
    def execute(self, duration: Time) -> Generator:
        """Consume ``duration`` of CPU time (preemptible under an RTOS)."""
        if duration < 0:
            raise ModelError(f"negative execute duration: {duration}")
        yield from self.context.execute(self, duration)

    def delay(self, duration: Time) -> Generator:
        """Suspend for wall-clock time without consuming the CPU."""
        if duration < 0:
            raise ModelError(f"negative delay duration: {duration}")
        yield from self.context.delay(self, duration)

    # -- events ---------------------------------------------------------
    def wait(self, event: EventRelation,
             timeout: Optional[Time] = None) -> Generator:
        """Wait on an MCSE event (consumes one memorized occurrence).

        ``timeout`` bounds the wait: ``0`` polls without blocking, any
        other value resumes empty-handed once it expires.  Returns True
        when an occurrence was consumed (always, for unbounded waits).
        """
        if event.try_wait():
            self._record_access(event, _WAIT, blocked=False)
            return True
        if timeout == 0:
            self._record_access(event, _WAIT, blocked=False)
            return False
        self._record_access(event, _WAIT, blocked=True)
        waiter = event._enqueue_waiter(self)
        yield from self.context.block(self, waiter, event, timeout)
        return waiter.delivered

    def signal(self, event: EventRelation) -> Generator:
        """Signal an MCSE event (never blocks; may pay RTOS overhead)."""
        self._record_access(event, _SIGNAL, blocked=False)
        event.signal()
        yield from self.context.after_signal(self, event)

    # -- message queues ---------------------------------------------------
    def read(self, queue: MessageQueue,
             timeout: Optional[Time] = None) -> Generator:
        """Take the oldest message from ``queue`` (blocks when empty).

        With a ``timeout`` the read is bounded: ``0`` polls, any other
        value gives up once it expires; a failed bounded read returns
        None.
        """
        ok, item = queue.try_get()
        if ok:
            self._record_access(queue, _READ, blocked=False, value=item)
            # taking a message may have unblocked a writer
            yield from self.context.after_signal(self, queue)
            return item
        if timeout == 0:
            self._record_access(queue, _READ, blocked=False)
            return None
        self._record_access(queue, _READ, blocked=True)
        waiter = queue._enqueue_waiter(self)
        value = yield from self.context.block(self, waiter, queue, timeout)
        return value

    def write(self, queue: MessageQueue, item: object,
              timeout: Optional[Time] = None) -> Generator:
        """Append ``item`` to ``queue`` (blocks when full).

        With a ``timeout`` the write is bounded (``0`` polls); returns
        True when the message was accepted.
        """
        if queue.try_put(item):
            self._record_access(queue, _WRITE, blocked=False, value=item)
            yield from self.context.after_signal(self, queue)
            return True
        if timeout == 0:
            self._record_access(queue, _WRITE, blocked=False, value=item)
            return False
        self._record_access(queue, _WRITE, blocked=True, value=item)
        waiter = queue.enqueue_writer(self, item)
        yield from self.context.block(self, waiter, queue, timeout)
        return waiter.delivered

    # -- eventflags -------------------------------------------------------
    def set_flag(self, flags: EventFlags, pattern: int) -> Generator:
        """OR ``pattern`` into an eventflag relation (never blocks)."""
        self._record_access(flags, _SIGNAL, blocked=False,
                            value=pattern)
        flags.set(pattern)
        yield from self.context.after_signal(self, flags)

    def clear_flag(self, flags: EventFlags, mask: int) -> Generator:
        """AND an eventflag pattern with ``mask`` (never wakes anyone)."""
        self._record_access(flags, _WRITE, blocked=False, value=mask)
        flags.clear(mask)
        return
        yield  # pragma: no cover - makes this a generator function

    def wait_flag(self, flags: EventFlags, pattern: int, mode: str = "or",
                  timeout: Optional[Time] = None) -> Generator:
        """Wait until ``pattern`` is satisfied under ``mode`` (and/or).

        Bounded like :meth:`wait`; returns True when satisfied.
        """
        if flags.try_wait_pattern(pattern, mode):
            self._record_access(flags, _WAIT, blocked=False,
                                value=pattern)
            return True
        if timeout == 0:
            self._record_access(flags, _WAIT, blocked=False,
                                value=pattern)
            return False
        self._record_access(flags, _WAIT, blocked=True,
                            value=pattern)
        waiter = flags.enqueue_flag_waiter(self, pattern, mode)
        yield from self.context.block(self, waiter, flags, timeout)
        return waiter.delivered

    # -- shared variables -------------------------------------------------
    def lock(self, shared: SharedVariable) -> Generator:
        """Acquire exclusive access to ``shared``."""
        if shared.try_lock(self):
            self._record_access(shared, _LOCK, blocked=False)
            return
        self._record_access(shared, _LOCK, blocked=True)
        shared.contentions += 1
        waiter = shared._enqueue_waiter(self)
        yield from self.context.block(self, waiter, shared)

    def unlock(self, shared: SharedVariable) -> Generator:
        """Release ``shared``; ownership passes to the next waiter."""
        shared.unlock(self)
        self._record_access(shared, _UNLOCK, blocked=False)
        yield from self.context.after_signal(self, shared)

    def read_shared(self, shared: SharedVariable, hold: Time = 0) -> Generator:
        """Convenience: lock, optionally hold for ``hold`` CPU time, read,
        unlock; returns the value."""
        yield from self.lock(shared)
        if hold:
            yield from self.execute(hold)
        value = shared.value
        yield from self.unlock(shared)
        return value

    def write_shared(self, shared: SharedVariable, value: object,
                     hold: Time = 0) -> Generator:
        """Convenience: lock, optionally hold, write ``value``, unlock."""
        yield from self.lock(shared)
        if hold:
            yield from self.execute(hold)
        shared.value = value
        yield from self.unlock(shared)

    # ------------------------------------------------------------------
    def _record_access(self, relation, kind: AccessKind, *, blocked: bool,
                       value: object = None) -> None:
        sim = self.sim
        emit = sim._emit
        if emit is not None:
            emit(AccessRecord(sim.now, self.name, relation.name, kind,
                              blocked, value))

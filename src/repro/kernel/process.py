"""Simulation processes: generator-based threads and method processes.

The kernel offers the two SystemC process flavours:

* **Thread processes** (:class:`Process`, ``SC_THREAD``): a Python
  generator that *yields* wait requests to the kernel and is resumed when
  the wait is satisfied.  This is the workhorse used for RTOS tasks.
* **Method processes** (:class:`MethodProcess`, ``SC_METHOD``): a plain
  callable re-invoked whenever one of its statically sensitive events
  triggers; it never blocks, but may override its next trigger once by
  returning a wait request (``next_trigger`` semantics).

Yield protocol
--------------

A thread process communicates with the kernel exclusively through
``yield``.  The yielded value is a *wait request*; for convenience some
raw values are auto-converted:

=====================================  =======================================
``yield 5 * US``                       wait for a duration (int femtoseconds)
``yield event``                        wait for one event
``yield (ev_a, ev_b)``                 wait for any of several events
``yield wait_any(a, b, timeout=t)``    first event, or ``None`` on timeout
``yield wait_all(a, b)``               wait until every event has triggered
``yield delta()``                      wait one delta cycle
=====================================  =======================================

The value *returned* by ``yield`` is the triggering :class:`Event` (for
single/any waits), or ``None`` for pure time waits, delta waits, timeouts
and all-waits.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Generator,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import ProcessError, ProcessKilled
from .event import Event
from .time import Time

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import KernelCore


class ProcessState(enum.Enum):
    """Life-cycle states of a kernel process."""

    CREATED = "created"
    RUNNABLE = "runnable"
    RUNNING = "running"
    WAITING = "waiting"
    TERMINATED = "terminated"


# ---------------------------------------------------------------------------
# Wait requests
# ---------------------------------------------------------------------------
class WaitRequest:
    """Base class for everything a thread process may yield."""

    __slots__ = ()


class WaitTime(WaitRequest):
    """Suspend for a fixed duration (0 means one delta cycle)."""

    __slots__ = ("duration",)

    def __init__(self, duration: Time) -> None:
        if duration < 0:
            raise ProcessError(f"cannot wait a negative duration: {duration}")
        self.duration = duration


class WaitEvents(WaitRequest):
    """Suspend until event(s) trigger, with optional timeout.

    ``mode`` is ``"any"`` (resume on the first trigger) or ``"all"``
    (resume once every listed event has triggered at least once).
    """

    __slots__ = ("events", "mode", "timeout")

    def __init__(
        self,
        events: Sequence[Event],
        mode: str = "any",
        timeout: Optional[Time] = None,
    ) -> None:
        if not events:
            raise ProcessError("wait request needs at least one event")
        if mode not in ("any", "all"):
            raise ProcessError(f"unknown wait mode: {mode!r}")
        if timeout is not None and timeout < 0:
            raise ProcessError(f"negative wait timeout: {timeout}")
        self.events: Tuple[Event, ...] = tuple(events)
        self.mode = mode
        self.timeout = timeout


def _flatten_events(events: Sequence[object]) -> Tuple[Event, ...]:
    """Allow both ``wait_any(a, b)`` and ``wait_any([a, b])`` spellings."""
    if len(events) == 1 and isinstance(events[0], (list, tuple, set)):
        events = tuple(events[0])  # type: ignore[assignment]
    for ev in events:
        if not isinstance(ev, Event):
            raise ProcessError(f"not an Event: {ev!r}")
    return tuple(events)  # type: ignore[return-value]


def wait_for(duration: Time) -> WaitTime:
    """Build a wait request for a fixed simulated duration."""
    return WaitTime(duration)


def delta() -> WaitTime:
    """Build a wait request for a single delta cycle (zero time)."""
    return WaitTime(0)


def wait_on(event: Event, timeout: Optional[Time] = None) -> WaitEvents:
    """Build a wait request for one event (optionally bounded by a timeout)."""
    return WaitEvents((event,), "any", timeout)


def wait_any(*events: object, timeout: Optional[Time] = None) -> WaitEvents:
    """Build a wait request satisfied by the first of several events."""
    return WaitEvents(_flatten_events(events), "any", timeout)


def wait_all(*events: object, timeout: Optional[Time] = None) -> WaitEvents:
    """Build a wait request satisfied once all events have triggered."""
    return WaitEvents(_flatten_events(events), "all", timeout)


# ---------------------------------------------------------------------------
# Wakeup plumbing
# ---------------------------------------------------------------------------
class _Timeout:
    """Cancellable timed-heap entry that ends a process's wait.

    ``process`` is the waiting process itself: it is the timeout target
    of every timed wait, pure or bounding an event wait.
    """

    __slots__ = ("time", "process", "cancelled")

    def __init__(self, time: Time, process: "ProcessBase") -> None:
        self.time = time
        self.process = process
        self.cancelled = False


class _StaticSensitivity:
    """Persistent sensitivity of a method process (never detaches)."""

    __slots__ = ("process",)

    def __init__(self, process: "MethodProcess", events: Iterable[Event]) -> None:
        self.process = process
        for ev in events:
            ev._waiters[self] = None

    def on_event(self, event: Event) -> None:
        self.process._on_static_trigger(event)


# EnumType defines __getattr__, so reading a member off its class takes
# the slow attribute hook on 3.11; the per-step paths read module globals.
_RUNNABLE = ProcessState.RUNNABLE
_RUNNING = ProcessState.RUNNING
_WAITING = ProcessState.WAITING
_TERMINATED = ProcessState.TERMINATED


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
class ProcessBase:
    """State shared by thread and method processes.

    A waiting process is its own event waiter: it sits in the
    ``_waiters`` of every event of its wait and is the target of the
    wait's :class:`_Timeout`.  The wait lives in three slots --
    ``_wait_events`` (the events, ``()`` when none), ``_wait_remaining``
    (the events a ``wait_all`` still needs, else ``None``) and
    ``_wait_timeout`` (the live timeout entry, else ``None``) -- which
    are all cleared before the process is made runnable again.
    """

    __slots__ = (
        "sim",
        "name",
        "state",
        "terminated_event",
        "result",
        "exception",
        "_wait_events",
        "_wait_remaining",
        "_wait_timeout",
        "step_count",
        "daemon",
    )

    def __init__(self, sim: "KernelCore", name: str) -> None:
        self.sim = sim
        self.name = name
        #: Daemon processes (service loops) are ignored by deadlock checks.
        self.daemon = False
        self.state = ProcessState.CREATED
        #: Delta-notified when the process terminates (for joins).
        self.terminated_event = Event(sim, f"{name}.terminated")
        self.result: object = None
        self.exception: Optional[BaseException] = None
        self._wait_events: Tuple[Event, ...] = ()
        self._wait_remaining: Optional[Set[Event]] = None
        self._wait_timeout: Optional[_Timeout] = None
        #: Number of times the kernel has resumed this process.
        self.step_count = 0

    @property
    def terminated(self) -> bool:
        return self.state is _TERMINATED

    # -- the wait ----------------------------------------------------------
    def _wait_on(self, request: WaitEvents) -> None:
        """Attach to ``request``'s events and arm its timeout, if any.

        Only the request's fields are copied: the caller may reuse the
        request object for its next wait.
        """
        events = request.events
        self._wait_events = events
        for ev in events:
            ev._waiters[self] = None
        if request.mode == "all":
            self._wait_remaining = set(events)
        timeout = request.timeout
        if timeout is not None:
            sim = self.sim
            self._wait_timeout = sim._schedule_timeout(self, sim.now + timeout)

    def on_event(self, event: Event) -> None:
        """An event of the current wait fired (called by ``Event._trigger``).

        An event that is not part of the current wait is a stale entry
        of a trigger snapshot taken before this wait ended; it is ignored.
        """
        remaining = self._wait_remaining
        if remaining is None:  # "any" mode
            if event not in self._wait_events:
                return
            self._end_wait()
            self._on_wait_resolved(event)
            return
        if event not in remaining:
            return
        remaining.discard(event)
        event._waiters.pop(self, None)
        if not remaining:
            self._end_wait()
            self._on_wait_resolved(None)

    def on_timeout(self) -> None:
        """The wait's timeout fired (called by the kernel's timed phase)."""
        self._wait_timeout = None  # fired: nothing left to cancel
        if self._wait_events:
            self._end_wait()
        self._on_wait_resolved(None)

    def _end_wait(self) -> None:
        """Withdraw the wait without waking the process.

        The timeout entry is cancelled *before* the event fields are
        cleared, so no path can leave an armed timeout behind a wait
        that already ended (it would wake the process a second time).
        """
        timeout = self._wait_timeout
        if timeout is not None:
            timeout.cancelled = True
            self._wait_timeout = None
        events = self._wait_events
        if events:
            for ev in events:
                ev._waiters.pop(self, None)
            self._wait_events = ()
            self._wait_remaining = None

    def _on_wait_resolved(self, value: Optional[Event]) -> None:
        raise NotImplementedError

    def _step(self) -> None:
        raise NotImplementedError

    def _terminate(self, result: object = None,
                   exception: Optional[BaseException] = None) -> None:
        self.state = _TERMINATED
        self.result = result
        self.exception = exception
        self.terminated_event.notify_delta()
        self.sim._on_process_terminated(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} {self.state.value}>"


#: Signature of a thread-process body.
ThreadBody = Callable[..., Generator]


class Process(ProcessBase):
    """A thread process wrapping a Python generator (``SC_THREAD``)."""

    __slots__ = ("_gen", "_send_value", "_pending_throw")

    def __init__(
        self,
        sim: "KernelCore",
        name: str,
        body: Union[Generator, ThreadBody],
        args: Tuple = (),
        kwargs: Optional[dict] = None,
    ) -> None:
        super().__init__(sim, name)
        if isinstance(body, Generator):
            self._gen = body
        else:
            gen = body(*args, **(kwargs or {}))
            if not isinstance(gen, Generator):
                raise ProcessError(
                    f"thread body {name!r} did not return a generator; "
                    "did you forget a yield?"
                )
            self._gen = gen
        self._send_value: Optional[Event] = None
        self._pending_throw: Optional[BaseException] = None

    # -- kernel interface ------------------------------------------------
    def _on_wait_resolved(self, value: Optional[Event]) -> None:
        # inlined _make_runnable: this is the per-wakeup hot path
        self._send_value = value
        self.state = _RUNNABLE
        self.sim._runnable.append(self)

    def _step(self) -> None:
        self.state = _RUNNING
        self.step_count += 1
        throw = self._pending_throw
        self._pending_throw = None
        try:
            if throw is not None:
                request = self._gen.throw(throw)
            else:
                request = self._gen.send(self._send_value)
        except StopIteration as stop:
            self._terminate(result=stop.value)
            return
        except ProcessKilled:
            self._terminate()
            return
        except BaseException as exc:  # model bug: surface it to the caller
            self._terminate(exception=exc)
            self.sim._on_process_error(self, exc)
            return
        self._send_value = None
        self._install_wait(request)

    def _install_wait(self, request: object) -> None:
        sim = self.sim
        self.state = _WAITING
        # Fast paths for the dominant yield shapes: a raw duration (int
        # femtoseconds), a single Event and a built WaitEvents.  All skip
        # _normalize.
        cls = request.__class__
        if cls is int:
            if request > 0:
                self._wait_timeout = sim._schedule_timeout(
                    self, sim.now + request
                )
            elif request == 0:
                sim._schedule_delta_resume(self)
            else:
                raise ProcessError(
                    f"cannot wait a negative duration: {request}"
                )
            return
        if cls is Event:
            self._wait_events = (request,)
            request._waiters[self] = None
            return
        if cls is not WaitEvents:
            request = self._normalize(request)
            if isinstance(request, WaitTime):
                if request.duration == 0:
                    sim._schedule_delta_resume(self)
                    return
                self._wait_timeout = sim._schedule_timeout(
                    self, sim.now + request.duration
                )
                return
        self._wait_on(request)  # type: ignore[arg-type]

    def _normalize(self, request: object) -> WaitRequest:
        if isinstance(request, WaitRequest):
            return request
        if isinstance(request, bool):
            raise ProcessError(f"{self.name}: yielded a bool; not a wait request")
        if isinstance(request, int):
            return WaitTime(request)
        if isinstance(request, Event):
            return WaitEvents((request,), "any", None)
        if isinstance(request, (tuple, list)):
            return WaitEvents(_flatten_events(tuple(request)), "any", None)
        raise ProcessError(
            f"{self.name}: yielded {request!r}, which is not a wait request"
        )

    # -- public control ---------------------------------------------------
    def kill(self) -> None:
        """Terminate the process as soon as the kernel regains control.

        A :class:`ProcessKilled` is thrown into the generator so that
        ``finally`` blocks in the model run.  Killing a terminated process
        is a no-op.
        """
        if self.terminated:
            return
        self._pending_throw = ProcessKilled()
        self._end_wait()
        if self.state is not _RUNNABLE:
            self.sim._make_runnable(self)

    def throw(self, exception: BaseException) -> None:
        """Inject ``exception`` into the process at its current wait point."""
        if self.terminated:
            raise ProcessError(f"cannot throw into terminated process {self.name}")
        self._pending_throw = exception
        self._end_wait()
        if self.state is not _RUNNABLE:
            self.sim._make_runnable(self)

    def join_request(self) -> WaitRequest:
        """Wait request that resumes the caller when this process ends.

        Safe to use even when the process has already terminated (the
        caller then just waits one delta cycle).
        """
        if self.terminated:
            return WaitTime(0)
        return WaitEvents((self.terminated_event,), "any", None)


class MethodProcess(ProcessBase):
    """A method process: a callable re-run on each sensitive trigger."""

    __slots__ = ("fn", "_static", "_queued", "_dynamic_active")

    def __init__(
        self,
        sim: "KernelCore",
        name: str,
        fn: Callable[[], object],
        sensitive: Iterable[Event] = (),
        initialize: bool = True,
    ) -> None:
        super().__init__(sim, name)
        self.fn = fn
        self._static = _StaticSensitivity(self, tuple(sensitive))
        self._queued = False
        self._dynamic_active = False
        if not initialize:
            self.state = _WAITING

    def _on_static_trigger(self, event: Event) -> None:
        if self._dynamic_active or self.terminated:
            return  # next_trigger override in effect
        self._enqueue()

    def _on_wait_resolved(self, value: Optional[Event]) -> None:
        self._dynamic_active = False
        self._enqueue()

    def _enqueue(self) -> None:
        if self._queued:
            return
        self._queued = True
        self.sim._make_runnable(self)

    def _step(self) -> None:
        self._queued = False
        self.state = _RUNNING
        self.step_count += 1
        try:
            request = self.fn()
        except BaseException as exc:
            self._terminate(exception=exc)
            self.sim._on_process_error(self, exc)
            return
        if request is None:
            self.state = _WAITING
            return
        # next_trigger override: dynamic sensitivity masks static for one shot
        if isinstance(request, int) and not isinstance(request, bool):
            request = WaitTime(request)
        elif isinstance(request, Event):
            request = WaitEvents((request,), "any", None)
        if isinstance(request, WaitTime):
            self._dynamic_active = True
            self.state = _WAITING
            if request.duration == 0:
                self.sim._schedule_delta_resume(self)
                return
            self._wait_timeout = self.sim._schedule_timeout(
                self, self.sim.now + request.duration
            )
            return
        if isinstance(request, WaitEvents):
            self._dynamic_active = True
            self.state = _WAITING
            self._wait_on(request)
            return
        raise ProcessError(
            f"{self.name}: method returned {request!r}; expected a wait "
            "request or None"
        )

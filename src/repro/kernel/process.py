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
# Sensitivities
# ---------------------------------------------------------------------------
class _Timeout:
    """Cancellable timed-heap entry that resolves a sensitivity.

    ``sensitivity`` is anything with an ``on_timeout()`` method: a
    :class:`_Sensitivity` for event waits with a timeout, or the waiting
    :class:`ProcessBase` itself for pure timed waits (which then need no
    sensitivity object at all).  In the latter case the entry doubles as
    the process's cancellation handle, hence :meth:`cancel`.
    """

    __slots__ = ("time", "sensitivity", "cancelled")

    def __init__(self, time: Time, sensitivity) -> None:
        self.time = time
        self.sensitivity = sensitivity
        self.cancelled = False

    def cancel(self) -> None:
        """Revoke the timeout without waking its target (kill/throw path)."""
        self.cancelled = True


class _Sensitivity:
    """Dynamic sensitivity binding a suspended process to its wakeup.

    Exactly one sensitivity is live per waiting thread process.  It is
    resolved by the first matching trigger and then fully detached, so a
    stale event trigger can never wake a process twice.

    Resolved sensitivities are recycled through the kernel's free-list
    (see :meth:`_acquire`).  That is safe because resolution detaches
    the object from every event and from its process before it is
    pooled, and a pooled object can only be reused from a subsequent
    ``_install_wait`` -- which never runs while an event-trigger
    snapshot that might still name this object is being iterated.
    Cancelled sensitivities (kill/throw) are *not* pooled: a snapshot
    taken before the cancel may still reference them.
    """

    __slots__ = ("process", "events", "mode", "remaining", "timeout_entry", "resolved")

    def __init__(
        self,
        process: "ProcessBase",
        events: Tuple[Event, ...],
        mode: str,
    ) -> None:
        self.process = process
        self.events = events
        self.mode = mode
        self.remaining = set(events) if mode == "all" else None
        self.timeout_entry: Optional[_Timeout] = None
        self.resolved = False
        for ev in events:
            ev._attach(self)

    @staticmethod
    def _acquire(
        process: "ProcessBase",
        events: Tuple[Event, ...],
        mode: str,
    ) -> "_Sensitivity":
        """Pool-aware constructor: reuse a resolved sensitivity if any."""
        pool = process.sim._free_sensitivities
        if not pool:
            return _Sensitivity(process, events, mode)
        self = pool.pop()
        self.process = process
        self.events = events
        self.mode = mode
        self.remaining = set(events) if mode == "all" else None
        self.timeout_entry = None
        self.resolved = False
        for ev in events:
            ev._attach(self)
        return self

    def on_event(self, event: Event) -> None:
        if self.resolved:
            return
        if self.remaining is None:  # "any" mode
            self._resolve(event)
            return
        remaining = self.remaining
        remaining.discard(event)
        event._detach(self)
        if not remaining:
            self._resolve(None)

    def on_timeout(self) -> None:
        if not self.resolved:
            self._resolve(None)

    def cancel(self) -> None:
        """Forcibly detach without waking the process (used by kill)."""
        if self.resolved:
            return
        self.resolved = True
        self._detach_all()

    def _resolve(self, value: Optional[Event]) -> None:
        self.resolved = True
        self._detach_all()
        process = self.process
        self.process = None
        self.events = ()
        self.remaining = None
        process._on_wait_resolved(value)
        process.sim._free_sensitivities.append(self)

    def _detach_all(self) -> None:
        for ev in self.events:
            ev._detach(self)
        if self.timeout_entry is not None:
            self.timeout_entry.cancelled = True
            self.timeout_entry = None


class _StaticSensitivity:
    """Persistent sensitivity of a method process (never detaches)."""

    __slots__ = ("process",)

    def __init__(self, process: "MethodProcess", events: Iterable[Event]) -> None:
        self.process = process
        for ev in events:
            ev._attach(self)

    def on_event(self, event: Event) -> None:
        self.process._on_static_trigger(event)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
class ProcessBase:
    """State shared by thread and method processes."""

    __slots__ = (
        "sim",
        "name",
        "state",
        "terminated_event",
        "result",
        "exception",
        "_sensitivity",
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
        #: Live wakeup handle while WAITING: a :class:`_Sensitivity` for
        #: event waits, or the :class:`_Timeout` entry itself for pure
        #: timed waits.  Either way it has ``cancel()``.
        self._sensitivity = None
        #: Number of times the kernel has resumed this process.
        self.step_count = 0

    @property
    def terminated(self) -> bool:
        return self.state is ProcessState.TERMINATED

    def on_timeout(self) -> None:
        """Resolve a pure timed wait (the process is its own sensitivity)."""
        self._on_wait_resolved(None)

    def _on_wait_resolved(self, value: Optional[Event]) -> None:
        raise NotImplementedError

    def _step(self) -> None:
        raise NotImplementedError

    def _terminate(self, result: object = None,
                   exception: Optional[BaseException] = None) -> None:
        self.state = ProcessState.TERMINATED
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
        self._sensitivity = None
        self._send_value = value
        self.state = ProcessState.RUNNABLE
        self.sim._runnable.append(self)

    def on_timeout(self) -> None:
        """Resolve a pure timed wait (the process is its own sensitivity)."""
        self._sensitivity = None
        self._send_value = None
        self.state = ProcessState.RUNNABLE
        self.sim._runnable.append(self)

    def _step(self) -> None:
        self.state = ProcessState.RUNNING
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
        self.state = ProcessState.WAITING
        # Fast paths for the dominant yield shapes: a raw duration (int
        # femtoseconds), a single Event and a built WaitEvents.  All skip
        # _normalize; a raw duration also skips the _Sensitivity
        # allocation -- the process itself is the timeout target (see
        # _Timeout).
        cls = request.__class__
        if cls is int:
            if request > 0:
                self._sensitivity = sim._schedule_timeout(self, sim.now + request)
            elif request == 0:
                sim._schedule_delta_resume(self)
            else:
                raise ProcessError(
                    f"cannot wait a negative duration: {request}"
                )
            return
        if cls is Event:
            self._sensitivity = _Sensitivity._acquire(self, (request,), "any")
            return
        if cls is not WaitEvents:
            request = self._normalize(request)
            if isinstance(request, WaitTime):
                if request.duration == 0:
                    sim._schedule_delta_resume(self)
                    return
                self._sensitivity = sim._schedule_timeout(
                    self, sim.now + request.duration
                )
                return
        assert isinstance(request, WaitEvents)
        sensitivity = _Sensitivity._acquire(self, request.events, request.mode)
        if request.timeout is not None:
            sensitivity.timeout_entry = sim._schedule_timeout(
                sensitivity, sim.now + request.timeout
            )
        self._sensitivity = sensitivity

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
        if self._sensitivity is not None:
            self._sensitivity.cancel()
            self._sensitivity = None
        if self.state is not ProcessState.RUNNABLE:
            self.sim._make_runnable(self)

    def throw(self, exception: BaseException) -> None:
        """Inject ``exception`` into the process at its current wait point."""
        if self.terminated:
            raise ProcessError(f"cannot throw into terminated process {self.name}")
        self._pending_throw = exception
        if self._sensitivity is not None:
            self._sensitivity.cancel()
            self._sensitivity = None
        if self.state is not ProcessState.RUNNABLE:
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
            self.state = ProcessState.WAITING

    def _on_static_trigger(self, event: Event) -> None:
        if self._dynamic_active or self.terminated:
            return  # next_trigger override in effect
        self._enqueue()

    def _on_wait_resolved(self, value: Optional[Event]) -> None:
        self._sensitivity = None
        self._dynamic_active = False
        self._enqueue()

    def _enqueue(self) -> None:
        if self._queued:
            return
        self._queued = True
        self.sim._make_runnable(self)

    def _step(self) -> None:
        self._queued = False
        self.state = ProcessState.RUNNING
        self.step_count += 1
        try:
            request = self.fn()
        except BaseException as exc:
            self._terminate(exception=exc)
            self.sim._on_process_error(self, exc)
            return
        if request is None:
            self.state = ProcessState.WAITING
            return
        # next_trigger override: dynamic sensitivity masks static for one shot
        if isinstance(request, int) and not isinstance(request, bool):
            request = WaitTime(request)
        elif isinstance(request, Event):
            request = WaitEvents((request,), "any", None)
        if isinstance(request, WaitTime):
            self._dynamic_active = True
            self.state = ProcessState.WAITING
            if request.duration == 0:
                self.sim._schedule_delta_resume(self)
                return
            self._sensitivity = self.sim._schedule_timeout(
                self, self.sim.now + request.duration
            )
            return
        if isinstance(request, WaitEvents):
            self._dynamic_active = True
            self.state = ProcessState.WAITING
            sensitivity = _Sensitivity._acquire(self, request.events, request.mode)
            if request.timeout is not None:
                sensitivity.timeout_entry = self.sim._schedule_timeout(
                    sensitivity, self.sim.now + request.timeout
                )
            self._sensitivity = sensitivity
            return
        raise ProcessError(
            f"{self.name}: method returned {request!r}; expected a wait "
            "request or None"
        )

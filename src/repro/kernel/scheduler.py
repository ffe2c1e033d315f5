"""The discrete-event kernel core: queues, phases, and the run loop.

The loop follows the SystemC 2.0 scheduler structure:

1. **Evaluate phase** -- run every runnable process.  Immediate event
   notifications issued here wake processes into the *same* phase.
2. **Update phase** -- apply the update requests posted by primitive
   channels (e.g. signals committing their new value).
3. **Delta notification phase** -- trigger delta-notified events and
   zero-time waits.  If that made processes runnable, a new *delta cycle*
   starts at step 1 without advancing time.
4. **Timed notification phase** -- otherwise, advance simulated time to
   the earliest pending timed notification, trigger everything scheduled
   at that instant, and return to step 1.

The kernel also maintains :attr:`KernelCore.process_switch_count`, the
number of process resumptions performed.  This is the cost metric the
paper's §4 uses to compare its two RTOS implementation techniques (each
SystemC thread switch is expensive; the procedure-call technique exists
precisely to avoid them), so we expose it as a first-class statistic.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import List, Optional, Tuple

from ..errors import DeadlockError, SchedulerError, SimulationError
from .event import Event, _DELTA_PENDING, _TimedNotification
from .process import (
    _RUNNABLE,
    _TERMINATED,
    _WAITING,
    MethodProcess,
    Process,
    ProcessBase,
    _Timeout,
)
from .time import Time, format_time


class _TimedCallback:
    """Cancellable timed-heap entry invoking a plain callable."""

    __slots__ = ("time", "fn", "cancelled")

    def __init__(self, time: Time, fn) -> None:
        self.time = time
        self.fn = fn
        self.cancelled = False


class KernelCore:
    """Event queues and scheduling loop shared by all simulations.

    Hot-path note: the kernel recycles :class:`_TimedNotification` and
    :class:`_Timeout` heap entries through free-lists.  An entry is only
    recycled after it has been popped from the timed heap *and* every
    external reference to it has been dropped (``Event._pending`` is
    cleared by ``_trigger``/``cancel``; ``ProcessBase._wait_timeout`` is
    cleared when the wait ends), so a pooled object can never be observed
    through a stale handle.
    """

    __slots__ = (
        "now",
        "delta_count",
        "process_switch_count",
        "processes",
        "_runnable",
        "_timed",
        "_seq",
        "_delta_events",
        "_delta_resumes",
        "_delta_callbacks",
        "_update_requests",
        "_current",
        "_started",
        "_running",
        "_stop_requested",
        "_pending_error",
        "_max_delta_cycles",
        "_free_notifications",
        "_free_timeouts",
        "sanitizer",
    )

    def __init__(self, max_delta_cycles: int = 1_000_000) -> None:
        #: Current simulated time in femtoseconds.
        self.now: Time = 0
        #: Total delta cycles executed so far.
        self.delta_count = 0
        #: Total process resumptions ("thread switches") performed.
        self.process_switch_count = 0
        #: All processes ever registered (terminated ones included).
        self.processes: List[ProcessBase] = []

        self._runnable: deque = deque()
        self._timed: List[Tuple[Time, int, object]] = []
        self._seq = 0
        self._delta_events: List[Event] = []
        self._delta_resumes: List[ProcessBase] = []
        self._delta_callbacks: List = []
        self._update_requests: List[object] = []
        self._current: Optional[ProcessBase] = None
        self._started = False
        self._running = False
        self._stop_requested = False
        self._pending_error: Optional[Tuple[ProcessBase, BaseException]] = None
        self._max_delta_cycles = max_delta_cycles
        # Free-lists recycling the two high-churn timed-heap entry kinds.
        self._free_notifications: List[_TimedNotification] = []
        self._free_timeouts: List[_Timeout] = []
        #: Opt-in nondeterminism sanitizer
        #: (:class:`repro.analyze.sanitize.Sanitizer`); ``None`` by
        #: default, so each kernel hook costs one attribute check.
        self.sanitizer = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def current_process(self) -> Optional[ProcessBase]:
        """The process currently being evaluated, or ``None``."""
        return self._current

    @property
    def started(self) -> bool:
        """Whether the simulation has begun executing."""
        return self._started

    def pending_activity(self) -> bool:
        """True if anything at all is still scheduled."""
        if self._runnable or self._delta_events or self._delta_resumes:
            return True
        return any(not self._entry_cancelled(e) for _, _, e in self._timed)

    def next_time(self) -> Optional[Time]:
        """Earliest pending timed activity, or ``None`` when idle."""
        for when, _, entry in sorted(self._timed)[:]:
            if not self._entry_cancelled(entry):
                return when
        return None

    @staticmethod
    def _entry_cancelled(entry: object) -> bool:
        return bool(getattr(entry, "cancelled", False))

    # ------------------------------------------------------------------
    # Scheduling services used by events, processes and channels
    # ------------------------------------------------------------------
    def _push_timed(self, when: Time, entry: object) -> None:
        self._seq += 1
        heapq.heappush(self._timed, (when, self._seq, entry))

    def _schedule_timed_notify(self, event: Event, when: Time) -> _TimedNotification:
        pool = self._free_notifications
        if pool:
            entry = pool.pop()
            entry.time = when
            entry.event = event
            entry.cancelled = False
        else:
            entry = _TimedNotification(when, event)
        self._push_timed(when, entry)
        return entry

    def _schedule_delta_notify(self, event: Event) -> None:
        self._delta_events.append(event)

    def schedule_callback(self, delay: Time, fn) -> _TimedCallback:
        """Invoke ``fn()`` after ``delay`` simulated time.

        Returns a handle whose ``cancelled`` flag may be set to revoke
        the callback.  The callable runs during the timed notification
        phase, i.e. outside any process; it may notify events but must
        not block.
        """
        if delay < 0:
            raise SchedulerError(f"negative callback delay: {delay}")
        entry = _TimedCallback(self.now + delay, fn)
        self._push_timed(entry.time, entry)
        return entry

    def schedule_delta_callback(self, fn) -> None:
        """Invoke ``fn()`` in the next delta-notification phase.

        Unlike :meth:`schedule_callback` with zero delay (which fires in
        the same timed phase), this guarantees every process made
        runnable at the current instant has executed first.
        """
        self._delta_callbacks.append(fn)

    def _schedule_timeout(self, process: ProcessBase, when: Time) -> _Timeout:
        pool = self._free_timeouts
        if pool:
            entry = pool.pop()
            entry.time = when
            entry.process = process
            entry.cancelled = False
        else:
            entry = _Timeout(when, process)
        self._push_timed(when, entry)
        return entry

    def _schedule_delta_resume(self, process: ProcessBase) -> None:
        self._delta_resumes.append(process)

    def _make_runnable(self, process: ProcessBase) -> None:
        process.state = _RUNNABLE
        self._runnable.append(process)

    def _request_update(self, channel) -> None:
        if not getattr(channel, "_update_requested", False):
            channel._update_requested = True
            self._update_requests.append(channel)

    def _register_process(self, process: ProcessBase) -> None:
        self.processes.append(process)
        if isinstance(process, MethodProcess):
            if process.state is _WAITING:
                return  # dont_initialize: wait for a static trigger
            process._enqueue()
            return
        # before the first run() this queues it for the initialization phase
        self._make_runnable(process)

    def _on_process_terminated(self, process: ProcessBase) -> None:
        process._end_wait()

    def _on_process_error(self, process: ProcessBase, exc: BaseException) -> None:
        self._pending_error = (process, exc)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to return after the current process step."""
        self._stop_requested = True

    def run(
        self,
        duration: Optional[Time] = None,
        *,
        until: Optional[Time] = None,
        error_on_deadlock: bool = False,
    ) -> Time:
        """Advance the simulation.

        ``duration`` is relative to the current time; ``until`` is an
        absolute time (mutually exclusive).  With neither, the simulation
        runs until no activity remains.  Timed activity scheduled exactly
        *at* the end bound is **not** processed -- the kernel stops with
        ``now`` set to the bound, so back-to-back ``run(step)`` calls
        never double-process an instant.

        Returns the simulated time at which the run stopped.  With
        ``error_on_deadlock=True``, raises :class:`DeadlockError` if the
        run went idle while thread processes are still blocked.
        """
        if self._running:
            raise SchedulerError("run() is not reentrant")
        if duration is not None and until is not None:
            raise SchedulerError("pass either duration or until, not both")
        end: Optional[Time] = None
        if duration is not None:
            if duration < 0:
                raise SchedulerError(f"negative run duration: {duration}")
            end = self.now + duration
        elif until is not None:
            if until < self.now:
                raise SchedulerError(
                    f"until={format_time(until)} is in the past "
                    f"(now={format_time(self.now)})"
                )
            end = until

        self._running = True
        self._stop_requested = False
        self._started = True
        try:
            self._run_loop(end)
        finally:
            self._running = False
        if end is not None and not self._stop_requested:
            # everything strictly before ``end`` has been processed
            self.now = end
        if error_on_deadlock and not self.pending_activity():
            blocked = [
                p.name
                for p in self.processes
                if isinstance(p, Process)
                and not p.daemon
                and not p.terminated
                and p.state is _WAITING
            ]
            if blocked:
                raise DeadlockError(
                    "simulation went idle with blocked processes: "
                    + ", ".join(sorted(blocked))
                )
        return self.now

    def _run_loop(self, end: Optional[Time]) -> None:
        delta_guard = 0
        # Hot-loop hoists: the phase queues and state sentinels are
        # stable objects (the loop snapshots-and-clears them rather than
        # rebinding), so bind them (and the deque's popleft) once.
        runnable = self._runnable
        popleft = runnable.popleft
        RUNNABLE = _RUNNABLE
        TERMINATED = _TERMINATED
        # The sanitizer is installed once at construction (or never), so
        # it can be hoisted; ``None`` keeps the hot loop hook-free.
        sanitizer = self.sanitizer
        delta_events = self._delta_events
        delta_resumes = self._delta_resumes
        delta_callbacks = self._delta_callbacks
        update_requests = self._update_requests
        while True:
            # --- evaluate phase ---------------------------------------
            ran_any = False
            while runnable:
                process = popleft()
                # a non-RUNNABLE state also covers terminated processes
                if process.state is not RUNNABLE:
                    continue
                ran_any = True
                self._current = process
                self.process_switch_count += 1
                if sanitizer is None:
                    process._step()
                else:
                    sanitizer.before_step(process)
                    process._step()
                    sanitizer.after_step(process)
                self._current = None
                if self._pending_error is not None:
                    process_, exc = self._pending_error
                    self._pending_error = None
                    raise SimulationError(
                        f"process {process_.name!r} raised at "
                        f"t={format_time(self.now)}: {exc!r}"
                    ) from exc
                if self._stop_requested:
                    return

            # --- update phase -----------------------------------------
            if update_requests:
                channels = update_requests[:]
                update_requests.clear()
                for channel in channels:
                    channel._update_requested = False
                    channel._update()

            # --- delta notification phase ------------------------------
            if delta_events or delta_resumes or delta_callbacks:
                self.delta_count += 1
                if ran_any:
                    delta_guard += 1
                    if delta_guard > self._max_delta_cycles:
                        raise self._stalled_error()
                events = delta_events[:]
                delta_events.clear()
                resumes = delta_resumes[:]
                delta_resumes.clear()
                callbacks = delta_callbacks[:]
                delta_callbacks.clear()
                for event in events:
                    if event._pending is _DELTA_PENDING:
                        event._trigger()
                for process in resumes:
                    if process.state is not TERMINATED:
                        process._on_wait_resolved(None)
                for fn in callbacks:
                    fn()
                if runnable:
                    continue

            # --- timed notification phase ------------------------------
            before = self.now
            if not self._advance_time(end):
                return
            if self.now != before:
                delta_guard = 0
            else:
                # a timed entry due now (a zero delay) is one more cycle
                # at the same instant, not progress
                delta_guard += 1
                if delta_guard > self._max_delta_cycles:
                    raise self._stalled_error()

    def _stalled_error(self) -> SchedulerError:
        return SchedulerError(
            f"more than {self._max_delta_cycles} delta cycles "
            f"without time advancing at t={format_time(self.now)}; "
            "the model probably has a zero-delay loop"
        )

    def _advance_time(self, end: Optional[Time]) -> bool:
        """Drain the earliest batch of timed entries; returns False when done.

        All entries scheduled at the earliest instant are popped in one
        heap pass.  Entries fired here may push *new* same-instant work
        (e.g. a zero-delay ``schedule_callback`` from inside a callback);
        the drain loop keeps going until the instant is exhausted, which
        preserves the original one-at-a-time semantics.
        """
        timed = self._timed
        pop = heapq.heappop
        free_notifications = self._free_notifications
        free_timeouts = self._free_timeouts
        while timed and timed[0][2].cancelled:
            entry = pop(timed)[2]
            cls = entry.__class__
            if cls is _TimedNotification:
                entry.event = None
                free_notifications.append(entry)
            elif cls is _Timeout:
                entry.process = None
                free_timeouts.append(entry)
        if not timed:
            return False
        when = timed[0][0]
        if end is not None and when >= end:
            return False
        if when < self.now:  # pragma: no cover - invariant guard
            raise SchedulerError(
                f"timed entry in the past: {format_time(when)} < "
                f"{format_time(self.now)}"
            )
        self.now = when
        while timed and timed[0][0] == when:
            entry = pop(timed)[2]
            cls = entry.__class__
            if cls is _TimedNotification:
                if not entry.cancelled:
                    entry.event._trigger()
                entry.event = None
                free_notifications.append(entry)
            elif cls is _Timeout:
                if not entry.cancelled:
                    entry.process.on_timeout()
                entry.process = None
                free_timeouts.append(entry)
            elif cls is _TimedCallback:
                if not entry.cancelled:
                    entry.fn()
            else:  # pragma: no cover - defensive
                raise SchedulerError(f"unknown timed entry: {entry!r}")
        return True

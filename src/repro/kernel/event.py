"""Simulation events with SystemC ``sc_event`` notification semantics.

An :class:`Event` is the kernel's only synchronization primitive.  It can
be notified three ways, exactly like ``sc_event``:

* :meth:`Event.notify` -- **immediate**: processes waiting on the event
  become runnable within the *current* evaluate phase.
* :meth:`Event.notify_delta` -- **delta**: waiting processes become
  runnable in the next delta cycle (time does not advance).
* :meth:`Event.notify_after` -- **timed**: waiting processes become
  runnable when simulated time reaches ``now + delay``.

An event carries at most one *pending* (delta or timed) notification.
SystemC's override rules apply: an earlier notification cancels and
replaces a later pending one, and a later notification is discarded when
an earlier one is already pending.  :meth:`Event.cancel` discards any
pending notification.

Events are deliberately payload-free; data exchange happens in channels
(:mod:`repro.kernel.channels`) and MCSE relations (:mod:`repro.mcse`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..errors import SimulationError
from .time import Time, format_time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .scheduler import KernelCore


class _TimedNotification:
    """A cancellable entry in the kernel's timed-notification heap."""

    __slots__ = ("time", "event", "cancelled")

    def __init__(self, time: Time, event: "Event") -> None:
        self.time = time
        self.event = event
        self.cancelled = False


#: Sentinel stored in ``Event._pending`` while a delta notification is queued.
_DELTA_PENDING = "delta"


class Event:
    """A notifiable simulation event (see module docstring).

    Instances are normally created through :meth:`Simulator.event` or
    :meth:`Module.event`, which take care of unique naming.
    """

    __slots__ = (
        "sim",
        "name",
        "_waiters",
        "_pending",
        "trigger_count",
        "last_trigger_time",
    )

    def __init__(self, sim: "KernelCore", name: str = "event") -> None:
        self.sim = sim
        self.name = name
        # dict used as an insertion-ordered set for deterministic wakeups;
        # a waiter is a waiting process or a method's static sensitivity,
        # anything with ``on_event(event)``
        self._waiters: Dict[object, None] = {}
        self._pending: Optional[object] = None
        #: Number of times this event has triggered (any notification kind).
        self.trigger_count = 0
        #: Simulation time of the most recent trigger, or ``None``.
        self.last_trigger_time: Optional[Time] = None

    # ------------------------------------------------------------------
    # Notification API
    # ------------------------------------------------------------------
    def notify(self) -> None:
        """Immediate notification: wake waiters in the current evaluate phase.

        Any pending delta/timed notification is cancelled first (it would
        be redundant: the event just fired).
        """
        if self._pending is not None:
            self.cancel()
        self._trigger()

    def notify_delta(self) -> None:
        """Delta notification: wake waiters one delta cycle from now."""
        if self._pending is _DELTA_PENDING:
            return  # already as early as a pending notification can be
        # A delta notification is earlier than any timed one: override it.
        self.cancel()
        self._pending = _DELTA_PENDING
        self.sim._schedule_delta_notify(self)

    def notify_after(self, delay: Time) -> None:
        """Timed notification ``delay`` femtoseconds from now.

        ``delay == 0`` degenerates to a delta notification, as in SystemC.
        A pending notification that is *earlier* wins; a pending one that
        is *later* is cancelled and replaced.
        """
        if delay < 0:
            raise SimulationError(
                f"negative notification delay on event {self.name!r}: {delay}"
            )
        if delay == 0:
            self.notify_delta()
            return
        when = self.sim.now + delay
        pending = self._pending
        if pending is _DELTA_PENDING:
            return  # delta is earlier than any timed notification
        # past the delta check, ``pending`` is None or a _TimedNotification
        if pending is not None and not pending.cancelled:
            if pending.time <= when:
                return  # an earlier (or equal) notification already pending
            pending.cancelled = True
        self._pending = self.sim._schedule_timed_notify(self, when)

    def cancel(self) -> None:
        """Cancel any pending delta or timed notification."""
        pending = self._pending
        if pending is None:
            return
        # a delta notification is cancelled lazily: the delta phase
        # re-checks ``_pending`` before triggering
        if pending is not _DELTA_PENDING:
            pending.cancelled = True
        self._pending = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> bool:
        """Whether a delta or timed notification is currently queued."""
        pending = self._pending
        if pending is None:
            return False
        if isinstance(pending, _TimedNotification):
            return not pending.cancelled
        return True

    @property
    def pending_time(self) -> Optional[Time]:
        """Absolute trigger time of a pending *timed* notification.

        ``None`` when nothing is pending; the current time when a delta
        notification is pending.
        """
        pending = self._pending
        if isinstance(pending, _TimedNotification) and not pending.cancelled:
            return pending.time
        if pending is _DELTA_PENDING:
            return self.sim.now
        return None

    # ------------------------------------------------------------------
    # Kernel-internal hooks
    # ------------------------------------------------------------------
    def _trigger(self) -> None:
        """Fire the event: call ``on_event`` on every waiter.

        Called by the kernel during the appropriate phase.  A waiter's
        callback detaches it (a process's wait ends), so iteration
        happens over a snapshot.
        """
        self._pending = None
        self.trigger_count += 1
        self.last_trigger_time = self.sim.now
        waiters = self._waiters
        if not waiters:
            return
        if len(waiters) == 1:
            # Fast path: the overwhelmingly common single-waiter case
            # needs no snapshot list -- grab the sole waiter before its
            # callback can mutate the waiter dict.
            for waiter in waiters:
                break
            waiter.on_event(self)
            return
        snapshot = list(waiters)
        # Sanitizer hook on the rare multi-waiter branch only: the wake
        # order below is deterministic but implementation-defined.
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.observe_multi_wake(self, len(snapshot))
        for waiter in snapshot:
            waiter.on_event(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ""
        if self.pending:
            when = self.pending_time
            state = f" pending@{format_time(when) if when is not None else '?'}"
        return f"<Event {self.name}{state}>"

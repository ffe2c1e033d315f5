"""Primitive channels: signal, FIFO, mutex, semaphore, event queue.

These mirror SystemC's primitive channel library and serve two purposes:

* they complete the SystemC substrate (hardware sides of a co-simulated
  model communicate through them), and
* the MCSE relations (:mod:`repro.mcse`) and the RTOS services
  (:mod:`repro.rtos.services`) are built on the same wait/notify idioms.

Blocking operations are **generator methods**: call them with
``yield from`` inside a thread process::

    item = yield from fifo.get()
    yield from mutex.lock()
    ...
    mutex.unlock()
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, Generator, List

from ..errors import SimulationError
from .event import Event
from .simulator import Simulator
from .time import Time


class Signal:
    """A value holder with SystemC evaluate/update semantics.

    Writes are deferred to the update phase, so every reader within one
    delta cycle observes the same stable value; ``value_changed`` is
    delta-notified when the committed value differs from the old one.
    """

    def __init__(self, sim: Simulator, name: str = "signal", initial=None) -> None:
        self.sim = sim
        self.name = sim.unique_name(name)
        self._value = initial
        self._new_value = initial
        self._update_requested = False
        #: Delta-notified whenever the committed value changes.
        self.value_changed = Event(sim, f"{self.name}.value_changed")
        #: Number of committed changes (useful for toggle counting).
        self.change_count = 0

    def read(self):
        """Return the current committed value."""
        return self._value

    @property
    def value(self):
        return self._value

    def write(self, value) -> None:
        """Schedule ``value`` to be committed at the next update phase."""
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.observe_signal_write(self, value)
        self._new_value = value
        self.sim._request_update(self)

    def _update(self) -> None:
        if self._new_value != self._value:
            self._value = self._new_value
            self.change_count += 1
            self.value_changed.notify_delta()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Signal {self.name}={self._value!r}>"


class Fifo:
    """A bounded blocking FIFO (``sc_fifo``)."""

    def __init__(self, sim: Simulator, name: str = "fifo", capacity: int = 16) -> None:
        if capacity < 1:
            raise SimulationError(f"fifo capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = sim.unique_name(name)
        self.capacity = capacity
        self._items: Deque = deque()
        self.data_written = Event(sim, f"{self.name}.data_written")
        self.data_read = Event(sim, f"{self.name}.data_read")
        #: Lifetime counters for utilization statistics.
        self.total_put = 0
        self.total_got = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def free(self) -> int:
        return self.capacity - len(self._items)

    def try_put(self, item) -> bool:
        """Non-blocking put; returns False when full."""
        if len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self.total_put += 1
        self.data_written.notify_delta()
        return True

    def try_get(self):
        """Non-blocking get; returns ``(ok, item)``."""
        if not self._items:
            return False, None
        item = self._items.popleft()
        self.total_got += 1
        self.data_read.notify_delta()
        return True, item

    def put(self, item) -> Generator:
        """Blocking put (``yield from`` me)."""
        while not self.try_put(item):
            yield self.data_read

    def get(self) -> Generator:
        """Blocking get (``yield from`` me); returns the item."""
        while True:
            ok, item = self.try_get()
            if ok:
                return item
            yield self.data_written


class Mutex:
    """A non-recursive mutex (``sc_mutex``) with FIFO wakeup fairness."""

    def __init__(self, sim: Simulator, name: str = "mutex") -> None:
        self.sim = sim
        self.name = sim.unique_name(name)
        self.owner = None
        self.unlocked = Event(sim, f"{self.name}.unlocked")
        #: Lifetime counts for contention statistics.
        self.acquisitions = 0
        self.contentions = 0

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def try_lock(self) -> bool:
        """Non-blocking lock attempt by the current process."""
        if self.owner is not None:
            return False
        self.owner = self.sim.current_process
        self.acquisitions += 1
        return True

    def lock(self) -> Generator:
        """Blocking lock (``yield from`` me)."""
        if not self.try_lock():
            self.contentions += 1
            while True:
                yield self.unlocked
                if self.try_lock():
                    break

    def unlock(self) -> None:
        """Release; only the owning process may unlock."""
        current = self.sim.current_process
        if self.owner is None:
            raise SimulationError(f"unlock of unlocked mutex {self.name!r}")
        if current is not None and self.owner is not current:
            raise SimulationError(
                f"process {current.name!r} unlocking mutex {self.name!r} "
                f"owned by {self.owner.name!r}"
            )
        self.owner = None
        self.unlocked.notify()


class Semaphore:
    """A counting semaphore (``sc_semaphore``)."""

    def __init__(self, sim: Simulator, name: str = "semaphore", initial: int = 1) -> None:
        if initial < 0:
            raise SimulationError(f"negative semaphore count: {initial}")
        self.sim = sim
        self.name = sim.unique_name(name)
        self.count = initial
        self.posted = Event(sim, f"{self.name}.posted")

    def try_wait(self) -> bool:
        if self.count == 0:
            return False
        self.count -= 1
        return True

    def wait(self) -> Generator:
        """Blocking P operation (``yield from`` me)."""
        while not self.try_wait():
            yield self.posted

    def post(self) -> None:
        """V operation; wakes one-or-more blocked waiters to re-contend."""
        self.count += 1
        self.posted.notify()


class EventQueue:
    """Multiple outstanding timed notifications (``sc_event_queue``).

    Unlike a bare :class:`Event`, every queued notification fires, even
    when several land at the same instant (each in its own delta cycle).
    """

    def __init__(self, sim: Simulator, name: str = "event_queue") -> None:
        self.sim = sim
        self.name = sim.unique_name(name)
        #: Trigger one wait per queued notification by waiting on this.
        self.event = Event(sim, f"{self.name}.event")
        self._pending: List[Time] = []
        self._due = 0
        # Re-arms the event when several notifications land at one instant,
        # guaranteeing one delta-separated trigger per notification.
        self._pump = sim.method(
            self._drain, sensitive=(self.event,),
            name=f"{self.name}.pump", initialize=False,
        )

    def notify(self, delay: Time = 0) -> None:
        """Queue a notification ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"negative event-queue delay: {delay}")
        heapq.heappush(self._pending, self.sim.now + delay)
        self.sim.schedule_callback(delay, self._fire)

    def _fire(self) -> None:
        if self._pending:
            heapq.heappop(self._pending)
        self._due += 1
        self.event.notify_delta()

    def _drain(self) -> None:
        if self._due > 0:
            self._due -= 1
        if self._due > 0:
            self.event.notify_delta()

    def cancel_all(self) -> None:
        """Discard all queued notifications (best effort)."""
        self._pending.clear()
        self._due = 0
        self.event.cancel()

    @property
    def pending_count(self) -> int:
        """Notifications queued but not yet fired."""
        return len(self._pending)

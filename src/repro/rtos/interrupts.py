"""Hardware interrupt sources.

In the paper's examples a hardware event (e.g. the ``Clock`` task
notifying ``Clk``) wakes a software task at an exact instant, preempting
whatever runs.  These helpers package the common patterns:

* :class:`PeriodicInterrupt` -- a timer interrupt firing every period,
  running a zero-time *handler* (usually: signal an MCSE event relation);
* :class:`EventInterrupt` -- an interrupt bound to any kernel event
  (e.g. a :class:`~repro.kernel.clock.Clock` posedge or a signal change).

Handlers run outside any task context (kernel callbacks / daemon
processes), so task wakeups they cause take the RTOS model's *external*
path: exact-time preemption of the running task, or a wake-from-idle
scheduling pass.  Interrupt deliveries are recorded for the TimeLine.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..kernel.event import Event
from ..kernel.simulator import Simulator
from ..kernel.time import Time
from ..trace.records import InterruptRecord


class PeriodicInterrupt:
    """A timer interrupt: run ``handler()`` every ``period``.

    The first delivery is at ``start_time + period`` unless
    ``immediate_first`` is set.  ``max_fires`` bounds the number of
    deliveries (handy for finite experiment runs).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        period: Time,
        handler: Callable[[], None],
        processor_name: str = "",
        start_time: Time = 0,
        immediate_first: bool = False,
        max_fires: Optional[int] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"interrupt period must be positive: {period}")
        self.sim = sim
        self.name = sim.unique_name(name)
        self.period = period
        self.handler = handler
        self.processor_name = processor_name
        self.fire_count = 0
        self.max_fires = max_fires
        self._stopped = False
        first = start_time if immediate_first else start_time + period
        sim.schedule_callback(first, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fire_count += 1
        emit = self.sim._emit
        if emit is not None:
            emit(InterruptRecord(self.sim.now, self.processor_name, self.name))
        self.handler()
        if self.max_fires is not None and self.fire_count >= self.max_fires:
            self._stopped = True
            return
        self.sim.schedule_callback(self.period, self._fire)

    def stop(self) -> None:
        """Stop delivering (cannot be restarted)."""
        self._stopped = True


def attach_isr(
    system,
    processor,
    name: str,
    *,
    period: Time,
    isr_duration: Time,
    action: Optional[Callable[[], None]] = None,
    max_fires: Optional[int] = None,
    priority: int = 10**9,
):
    """Model an interrupt whose *service routine costs CPU time*.

    :class:`PeriodicInterrupt` delivers in zero time (a pure hardware
    event); a real interrupt also steals CPU for its ISR before the
    woken task can run.  This helper builds the standard pattern: a
    top-priority micro-task on ``processor`` that wakes on each
    interrupt, executes ``isr_duration`` (preempting whatever runs, at
    the exact interrupt time), performs ``action`` (typically: signal
    the relation the real handler task waits on), and sleeps again.

    Returns ``(interrupt, isr_function)``.  ``action`` runs *after* the
    ISR's CPU time, i.e. the handler task's wake-up already includes the
    ISR latency -- which is the point.
    """
    from ..mcse.events import CounterEvent

    pending = CounterEvent(system.sim, f"{name}.pending")

    def isr_body(fn):
        while True:
            yield from fn.wait(pending)
            yield from fn.execute(isr_duration)
            if action is not None:
                action()

    isr_fn = system.function(f"{name}.isr", isr_body, priority=priority)
    processor.map(isr_fn)
    interrupt = PeriodicInterrupt(
        system.sim,
        name,
        period=period,
        handler=pending.signal,
        processor_name=processor.name,
        max_fires=max_fires,
    )
    return interrupt, isr_fn


class EventInterrupt:
    """Run ``handler()`` each time a kernel event triggers.

    Implemented as a method process statically sensitive to the event,
    so it adds no simulated time of its own.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        event: Event,
        handler: Callable[[], None],
        processor_name: str = "",
    ) -> None:
        self.sim = sim
        self.name = sim.unique_name(name)
        self.event = event
        self.handler = handler
        self.processor_name = processor_name
        self.fire_count = 0
        self._enabled = True
        sim.method(
            self._fire, sensitive=(event,), name=f"{self.name}.isr",
            initialize=False,
        )

    def _fire(self) -> None:
        if not self._enabled:
            return
        self.fire_count += 1
        emit = self.sim._emit
        if emit is not None:
            emit(InterruptRecord(self.sim.now, self.processor_name, self.name))
        self.handler()

    def disable(self) -> None:
        """Mask the interrupt."""
        self._enabled = False

    def enable(self) -> None:
        """Unmask the interrupt."""
        self._enabled = True

"""The public simulation facade.

:class:`Simulator` wraps :class:`~repro.kernel.scheduler.KernelCore` with
naming, factory helpers, and the record observers the higher layers
(:mod:`repro.rtos`, :mod:`repro.trace`, :mod:`repro.verify`) attach
to.  A typical standalone use looks like::

    from repro.kernel import Simulator
    from repro.kernel.time import US

    sim = Simulator("demo")
    done = sim.event("done")

    def producer():
        yield 5 * US
        done.notify()

    def consumer():
        yield done
        print("got it at", sim.time_str())

    sim.thread(producer, name="producer")
    sim.thread(consumer, name="consumer")
    sim.run()
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, Optional, Tuple, Union

from .event import Event
from .process import MethodProcess, Process, ThreadBody
from .scheduler import KernelCore
from .time import Time, format_time


class Simulator(KernelCore):
    """A named simulation context with object factories.

    ``sanitize=True`` installs the runtime nondeterminism sanitizer
    (:class:`repro.analyze.sanitize.Sanitizer`) in the kernel's
    ``sanitizer`` slot; read its findings from ``sim.sanitizer.report``
    after the run.
    """

    __slots__ = (
        "name",
        "_names",
        "_observers",
        "_emit",
        "choice_controller",
        # a trace recorder's finalizer refers to its simulator weakly
        "__weakref__",
    )

    def __init__(
        self,
        name: str = "sim",
        max_delta_cycles: int = 1_000_000,
        *,
        sanitize: bool = False,
    ) -> None:
        super().__init__(max_delta_cycles=max_delta_cycles)
        self.name = name
        self._names: Dict[str, int] = {}
        #: Callables taking every emitted record: a trace recorder's
        #: store and runtime monitors such as the deadline watchdog.
        self._observers: Tuple[Callable, ...] = ()
        #: The resolved emission sink: ``None`` while nothing listens,
        #: else one callable taking a record.  Emission sites check it
        #: once and build their record only when it is set.
        self._emit: Optional[Callable] = None
        #: Optional :class:`repro.verify.choices.ChoiceController` that
        #: resolves scheduling nondeterminism (ready-queue ties, wake
        #: order, execution-time ranges); ``None`` by default so the
        #: hooks cost one attribute check per decision.
        self.choice_controller = None
        if sanitize:
            from ..analyze.sanitize import Sanitizer

            self.sanitizer = Sanitizer(self)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def unique_name(self, base: str) -> str:
        """Return ``base``, deterministically suffixed if already taken."""
        count = self._names.get(base)
        if count is None:
            self._names[base] = 0
            return base
        self._names[base] = count + 1
        return f"{base}_{count + 1}"

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self, name: str = "event") -> Event:
        """Create a named :class:`Event` bound to this simulator."""
        return Event(self, self.unique_name(name))

    def thread(
        self,
        body: Union[Generator, ThreadBody],
        *args,
        name: Optional[str] = None,
        **kwargs,
    ) -> Process:
        """Register a thread process from a generator function (or generator).

        Extra positional/keyword arguments are passed to ``body``.
        """
        if name is None:
            name = getattr(body, "__name__", "thread")
        process = Process(self, self.unique_name(name), body, args, kwargs)
        self._register_process(process)
        return process

    def method(
        self,
        fn: Callable[[], object],
        sensitive: Iterable[Event] = (),
        *,
        name: Optional[str] = None,
        initialize: bool = True,
    ) -> MethodProcess:
        """Register a method process statically sensitive to ``sensitive``."""
        if name is None:
            name = getattr(fn, "__name__", "method")
        process = MethodProcess(
            self, self.unique_name(name), fn, sensitive, initialize=initialize
        )
        self._register_process(process)
        return process

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def time_str(self, t: Optional[Time] = None) -> str:
        """Format ``t`` (default: now) for humans."""
        return format_time(self.now if t is None else t)

    def add_observer(self, fn) -> None:
        """Register a callable invoked with every emitted trace record.

        Observers run synchronously at emission time (inside whatever
        process caused the record), so they can react *during* the
        simulation -- e.g. arm a watchdog timer.  They must not block.
        Observers see each record in the order they were added.  A
        :class:`~repro.trace.recorder.TraceRecorder` is one of them.  An
        observer added or removed while a record is being emitted
        takes effect from the next record on.
        """
        self._observers += (fn,)
        self._resolve_emit()

    def remove_observer(self, fn) -> None:
        """Unregister a previously added observer (no-op if absent)."""
        observers = self._observers
        if fn in observers:
            index = observers.index(fn)
            self._observers = observers[:index] + observers[index + 1:]
            self._resolve_emit()

    def _resolve_emit(self) -> None:
        sinks = self._observers
        if len(sinks) < 2:
            self._emit = sinks[0] if sinks else None
            return

        def fan_out(record) -> None:
            for sink in sinks:
                sink(record)

        self._emit = fan_out

    def record(self, record) -> None:
        """Emit a trace record to every observer."""
        emit = self._emit
        if emit is not None:
            emit(record)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator {self.name} t={format_time(self.now)} "
            f"procs={len(self.processes)} switches={self.process_switch_count}>"
        )

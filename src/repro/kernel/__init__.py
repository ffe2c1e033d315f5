"""A SystemC-like discrete-event simulation kernel in pure Python.

This package is the substrate on which the RTOS model of Le Moigne et
al. (DATE 2004) is rebuilt.  It reproduces the SystemC 2.0 semantics the
paper relies on: thread and method processes, events with immediate /
delta / timed notification, evaluate-update-delta phases, primitive
channels and clocks.

Quick tour::

    from repro.kernel import Simulator, wait_any
    from repro.kernel.time import US
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "channels": ("EventQueue", "Fifo", "Mutex", "Semaphore", "Signal"),
    "clock": ("Clock", "TickClock"),
    "event": ("Event",),
    "module": ("Module",),
    "process": ("MethodProcess", "Process", "ProcessState", "WaitEvents",
                "WaitRequest", "WaitTime", "delta", "wait_all", "wait_any",
                "wait_for", "wait_on"),
    "scheduler": ("KernelCore",),
    "simulator": ("Simulator",),
    "time": ("FS", "MS", "NS", "PS", "SEC", "US", "Time", "format_time",
             "parse_time"),
})

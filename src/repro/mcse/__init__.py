"""The MCSE functional model: functions connected by typed relations.

This is the application model of the paper's §2: a system is a set of
:class:`~repro.mcse.function.Function` objects (tasks), each running a
sequential behavior, communicating only through three relation kinds:

* events with fugitive / boolean / counter memorization,
* bounded message queues,
* mutex-protected shared variables.

The model is platform-independent: map functions onto RTOS processors
(:mod:`repro.rtos`) or leave them as concurrent hardware.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "builder": ("build_system",),
    "context": ("HARDWARE_CONTEXT", "ExecutionContext", "HardwareContext"),
    "events": ("BooleanEvent", "CounterEvent", "EventRelation",
               "FugitiveEvent"),
    "function": ("Function",),
    "model": ("EVENT_POLICIES", "System"),
    "queues": ("MessageQueue",),
    "relations": ("Relation", "Waiter"),
    "shared": ("SharedVariable",),
})

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

from .builder import build_system
from .context import HARDWARE_CONTEXT, ExecutionContext, HardwareContext
from .events import BooleanEvent, CounterEvent, EventRelation, FugitiveEvent
from .function import Function
from .model import EVENT_POLICIES, System
from .queues import MessageQueue
from .relations import Relation, Waiter
from .shared import SharedVariable

__all__ = [
    "BooleanEvent",
    "CounterEvent",
    "EVENT_POLICIES",
    "EventRelation",
    "ExecutionContext",
    "FugitiveEvent",
    "Function",
    "HARDWARE_CONTEXT",
    "HardwareContext",
    "MessageQueue",
    "Relation",
    "SharedVariable",
    "System",
    "Waiter",
    "build_system",
]

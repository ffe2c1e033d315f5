"""The generic RTOS model -- the paper's contribution.

Map MCSE functions onto a :class:`Processor` and the simulation accounts
for task serialization, the scheduling policy, preemptive/non-preemptive
mode, and the three RTOS overhead components (scheduling duration,
context-load and context-save durations), with time-accurate preemption
independent of any clock.

Two interchangeable engines implement the model, mirroring the paper's
§4: the default procedure-call engine (fast, §4.2) and the dedicated
RTOS-thread engine (§4.1).  ``make_processor`` selects one by name.
"""

from .._exports import lazy_exports
from ..errors import RTOSError
from . import partitions  # noqa: F401  registers "time_partition" in POLICIES
from .procedural import ProceduralProcessor
from .threaded import ThreadedProcessor

#: Engine registry for ``make_processor`` and the declarative builder.
ENGINES = {
    "procedural": ProceduralProcessor,
    "threaded": ThreadedProcessor,
}


def make_processor(sim, name, engine: str = "procedural", domain=None, **kwargs):
    """Create a processor using the selected RTOS engine.

    ``domain`` optionally joins the new processor to an existing
    :class:`repro.smp.SchedulingDomain` (global/partitioned kinds; a
    clustered domain takes its full member list at construction).
    """
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise RTOSError(
            f"unknown RTOS engine {engine!r}; pick one of {sorted(ENGINES)}"
        ) from None
    cpu = cls(sim, name, **kwargs)
    if domain is not None:
        domain.add_member(cpu)
    return cpu


__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "interrupts": ("EventInterrupt", "PeriodicInterrupt", "attach_isr"),
    "overheads": ("NO_OVERHEAD", "Overheads"),
    "partitions": ("TimePartitionPolicy",),
    "policies": ("EDFPolicy", "FifoPolicy", "GlobalEDFPolicy",
                 "GlobalRMPolicy", "LeastLaxityPolicy", "LotteryPolicy",
                 "POLICIES", "PriorityPreemptivePolicy",
                 "PriorityRoundRobinPolicy", "RateMonotonicPolicy",
                 "RoundRobinPolicy", "SchedulingPolicy", "make_policy"),
    "procedural": ("ProceduralContext", "ProceduralProcessor"),
    "processor": ("ProcessorBase",),
    "servers": ("AperiodicRequest", "DeferrableServer", "PollingServer"),
    "services": ("CeilingSharedVariable", "InheritanceSharedVariable"),
    "states": ("ALLOWED_TRANSITIONS", "check_transition"),
    "tcb": ("Task",),
    "threaded": ("ThreadedContext", "ThreadedProcessor"),
    "watchdog": ("DeadlineWatchdog",),
}, own=("ENGINES", "make_processor"))

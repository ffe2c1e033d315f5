"""The :class:`System` facade: one object holding a whole model.

Collects the simulator, functions, relations and processors of a model
behind short factory methods, so examples and the declarative builder
read like the MCSE diagrams they come from::

    system = System("demo")
    clk = system.event("Clk", policy="boolean")
    f1 = system.function("Function_1", behavior=f1_behavior, priority=5)
    cpu = system.processor("Processor", scheduling_duration=5 * US)
    cpu.map(f1)
    system.run(200 * US)
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from ..errors import ModelError
from ..kernel.simulator import Simulator
from ..kernel.time import Time
from .events import BooleanEvent, CounterEvent, EventFlags, EventRelation, \
    FugitiveEvent
from .function import Function
from .queues import MessageQueue
from .relations import Relation
from .shared import SharedVariable

#: Event memorization policies accepted by :meth:`System.event`.
EVENT_POLICIES = {
    "fugitive": FugitiveEvent,
    "boolean": BooleanEvent,
    "counter": CounterEvent,
}


def _plain_shared():
    return SharedVariable


def _inheritance_shared():
    from ..rtos.services import InheritanceSharedVariable  # avoid a cycle

    return InheritanceSharedVariable


def _ceiling_shared():
    from ..rtos.services import CeilingSharedVariable  # avoid a cycle

    return CeilingSharedVariable


#: Resource-access protocols accepted by :meth:`System.shared` (lazy
#: class lookups: the RTOS protocols live above the MCSE layer).
SHARED_PROTOCOLS = {
    "none": _plain_shared,
    "inheritance": _inheritance_shared,
    "ceiling": _ceiling_shared,
}


class System:
    """A complete MCSE model: functions + relations (+ processors)."""

    def __init__(self, name: str = "system", sim: Optional[Simulator] = None) -> None:
        self.name = name
        self.sim = sim if sim is not None else Simulator(name)
        self.functions: Dict[str, Function] = {}
        self.relations: Dict[str, Relation] = {}
        self.processors: Dict[str, object] = {}
        self.domains: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def function(
        self,
        name: str,
        behavior: Optional[Callable[[Function], Generator]] = None,
        **kwargs,
    ) -> Function:
        """Create and register a :class:`Function`."""
        if name in self.functions:
            raise ModelError(f"duplicate function name {name!r}")
        fn = Function(self.sim, name, behavior, **kwargs)
        self.functions[name] = fn
        return fn

    def add_function(self, fn: Function) -> Function:
        """Register an externally constructed function (e.g. a subclass)."""
        if fn.basename in self.functions:
            raise ModelError(f"duplicate function name {fn.basename!r}")
        self.functions[fn.basename] = fn
        return fn

    def event(self, name: str, policy: str = "fugitive", **kwargs) -> EventRelation:
        """Create an MCSE event with the given memorization policy."""
        try:
            cls = EVENT_POLICIES[policy]
        except KeyError:
            raise ModelError(
                f"unknown event policy {policy!r}; "
                f"pick one of {sorted(EVENT_POLICIES)}"
            ) from None
        self._check_relation_name(name)
        return self._register(name, cls(self.sim, name, **kwargs))

    def queue(self, name: str, capacity: Optional[int] = 8, **kwargs) -> MessageQueue:
        """Create a bounded message queue."""
        self._check_relation_name(name)
        return self._register(name, MessageQueue(self.sim, name, capacity, **kwargs))

    def flags(self, name: str, initial: int = 0, **kwargs) -> EventFlags:
        """Create an eventflag relation (bit-pattern synchronization)."""
        self._check_relation_name(name)
        return self._register(
            name, EventFlags(self.sim, name, initial=initial, **kwargs)
        )

    def shared(self, name: str, initial: object = None,
               protocol: str = "none", **kwargs) -> SharedVariable:
        """Create a mutex-protected shared variable.

        ``protocol`` selects the resource-access protocol: ``"none"``
        (plain mutex), ``"inheritance"`` (priority inheritance) or
        ``"ceiling"`` (immediate priority ceiling; pass ``ceiling=``).
        """
        try:
            cls = SHARED_PROTOCOLS[protocol]()
        except KeyError:
            raise ModelError(
                f"unknown shared-variable protocol {protocol!r}; "
                f"pick one of {sorted(SHARED_PROTOCOLS)}"
            ) from None
        self._check_relation_name(name)
        return self._register(name, cls(self.sim, name, initial, **kwargs))

    def _check_relation_name(self, name: str) -> None:
        if name in self.relations:
            raise ModelError(f"duplicate relation name {name!r}")

    def processor(self, name: str, engine: str = "procedural", **kwargs):
        """Create an RTOS processor (see :mod:`repro.rtos.processor`).

        ``engine`` selects the implementation technique of the paper's
        §4: ``"procedural"`` (§4.2, default) or ``"threaded"`` (§4.1).
        """
        from ..rtos import make_processor  # local import avoids a cycle

        if name in self.processors:
            raise ModelError(f"duplicate processor name {name!r}")
        cpu = make_processor(self.sim, name, engine=engine, **kwargs)
        self.processors[name] = cpu
        return cpu

    def scheduling_domain(self, name: str, processors, **kwargs):
        """Group processors into an SMP scheduling domain.

        See :class:`repro.smp.SchedulingDomain` for the dispatch kinds
        (``global`` / ``partitioned`` / ``clustered``), affinity and
        migration semantics.
        """
        from ..smp.domain import SchedulingDomain  # local import avoids a cycle

        if name in self.domains:
            raise ModelError(f"duplicate scheduling domain name {name!r}")
        domain = SchedulingDomain(self.sim, name, processors, **kwargs)
        self.domains[name] = domain
        return domain

    def _register(self, name: str, relation: Relation) -> Relation:
        self.relations[name] = relation
        return relation

    # ------------------------------------------------------------------
    # Lookup & run control
    # ------------------------------------------------------------------
    def __getitem__(self, name: str):
        for registry in (self.functions, self.relations, self.processors,
                         self.domains):
            if name in registry:
                return registry[name]
        raise KeyError(name)

    def run(self, duration: Optional[Time] = None, **kwargs) -> Time:
        """Run the underlying simulator."""
        return self.sim.run(duration, **kwargs)

    @property
    def now(self) -> Time:
        return self.sim.now

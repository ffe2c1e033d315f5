"""Typed trace records emitted by the MCSE and RTOS layers.

Every observable thing that the paper's TimeLine chart displays is one of
these records:

* task state changes (Creation, Ready, Running, Waiting, Waiting-for-
  resource, Destruction) -- horizontal line segments on the chart;
* relation accesses (read / write / signal / lock / unlock) -- the
  vertical arrows;
* RTOS overhead windows (context save, scheduling, context load) -- the
  hatched slices the paper measures in Figure 6 (a)/(b)/(c);
* hardware interrupts / preemption decisions -- annotations.

Records are plain frozen dataclasses so they are hashable, comparable and
cheap; the recorder stores them in arrival order, which equals time order
because the kernel never goes backwards.

The three enums hash by identity (``object.__hash__``, a C slot) instead
of :class:`enum.Enum`'s pure-Python ``hash(self._name_)``: members are
singletons that compare by identity, so the two are equally consistent
with equality, and the RTOS hot path indexes dicts and sets by these
members on every task state change and overhead charge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..kernel.time import Time


class TaskState(enum.Enum):
    """Task states shown on a TimeLine chart.

    ``READY`` is the paper's "waiting for processor availability",
    ``WAITING`` its "waiting for a synchronization", and
    ``WAITING_RESOURCE`` its "waiting for resource" (mutual exclusion).
    """

    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    WAITING_RESOURCE = "waiting_resource"
    TERMINATED = "terminated"

    __hash__ = object.__hash__


class AccessKind(enum.Enum):
    """Kinds of relation access drawn as arrows on the TimeLine."""

    SIGNAL = "signal"
    WAIT = "wait"
    WRITE = "write"
    READ = "read"
    LOCK = "lock"
    UNLOCK = "unlock"

    __hash__ = object.__hash__


class OverheadKind(enum.Enum):
    """The RTOS overhead components (paper §3.2 plus SMP migration)."""

    CONTEXT_SAVE = "context_save"
    SCHEDULING = "scheduling"
    CONTEXT_LOAD = "context_load"
    MIGRATION = "migration"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class TraceRecord:
    """Base record: a timestamped observation."""

    time: Time


@dataclass(frozen=True)
class StateRecord(TraceRecord):
    """A task entered ``state`` at ``time``.

    ``reason`` distinguishes, e.g., a READY entered by *preemption* from
    one entered by *wakeup* -- the paper's Figure-8 "preempted ratio"
    only counts the former.
    """

    task: str
    state: TaskState
    processor: Optional[str] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class AccessRecord(TraceRecord):
    """A task touched a relation (arrow on the TimeLine).

    ``blocked`` marks accesses that could not complete immediately --
    they are followed by a WAITING/WAITING_RESOURCE state segment.
    """

    task: str
    relation: str
    kind: AccessKind
    blocked: bool = False
    value: object = field(default=None, compare=False)


@dataclass(frozen=True)
class OverheadRecord(TraceRecord):
    """An RTOS overhead window of ``duration`` starting at ``time``."""

    processor: str
    kind: OverheadKind
    duration: Time
    task: Optional[str] = None


@dataclass(frozen=True)
class InterruptRecord(TraceRecord):
    """A hardware interrupt delivered to a processor."""

    processor: str
    source: str


@dataclass(frozen=True)
class PreemptionRecord(TraceRecord):
    """``preempting`` task preempted ``preempted`` on ``processor``."""

    processor: str
    preempted: str
    preempting: str


@dataclass(frozen=True)
class MigrationRecord(TraceRecord):
    """A scheduling domain moved ``task`` from ``source`` to ``target``."""

    task: str
    source: str
    target: str
    domain: Optional[str] = None


@dataclass(frozen=True)
class MarkerRecord(TraceRecord):
    """A free-form annotation (used by examples and tests)."""

    label: str
    task: Optional[str] = None

"""RTOS timing overheads (paper §3.2).

The RTOS contribution to system timing is modelled by three parameters:

* **scheduling duration** -- time the RTOS spends selecting a ready task;
* **context-load duration** -- time to load the chosen task's context;
* **context-save duration** -- time to save the suspended task's context.

Each may be a fixed time or a *user formula*: a callable evaluated
against the live processor state at the moment the overhead is incurred,
"according to the current state of the simulated system (number of ready
tasks for example)".  Formulas receive the :class:`Processor` so they can
inspect ``processor.ready_count``, ``processor.task_count``, the policy,
simulated time, and so on.

Example -- an O(n) scheduler on a 100 MHz core::

    overheads = Overheads(
        scheduling=lambda cpu: (20 + 4 * cpu.ready_count) * 10 * NS,
        context_load=2 * US,
        context_save=2 * US,
    )
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional, Union

from ..errors import RTOSError
from ..kernel.time import Time
from ..trace.records import OverheadKind

#: An overhead component: constant femtoseconds or formula(processor).
OverheadSpec = Union[int, Callable[["object"], Time]]


def formula_arity_error(fn: Callable, *argument_names: str) -> Optional[str]:
    """Why ``fn`` cannot take ``argument_names`` positionally, or ``None``.

    The single arity check shared by the :class:`Overheads` constructor,
    the RTS120 pre-simulation probe (:mod:`repro.analyze.model`) and the
    verifier's ``assert_always`` invariants (:mod:`repro.verify`), so all
    three agree on what a well-formed user formula looks like.  Callables
    without an introspectable signature (C builtins) pass vacuously.
    """
    try:
        signature = inspect.signature(fn)
    except (TypeError, ValueError):
        return None
    try:
        signature.bind(*argument_names)
    except TypeError:
        count = len(argument_names)
        plural = "argument" if count == 1 else "arguments"
        return (
            f"must accept {count} positional {plural} "
            f"({', '.join(argument_names)})"
        )
    return None


class Overheads:
    """The three overhead components of the RTOS model."""

    def __init__(
        self,
        scheduling: OverheadSpec = 0,
        context_load: OverheadSpec = 0,
        context_save: OverheadSpec = 0,
        migration: OverheadSpec = 0,
    ) -> None:
        self._scheduling = self._validate("scheduling", scheduling)
        self._context_load = self._validate("context_load", context_load)
        self._context_save = self._validate("context_save", context_save)
        self._migration = self._validate("migration", migration)
        #: Component per kind, for :meth:`duration`'s single lookup.
        self._by_kind = {
            OverheadKind.SCHEDULING: self._scheduling,
            OverheadKind.CONTEXT_LOAD: self._context_load,
            OverheadKind.CONTEXT_SAVE: self._context_save,
            OverheadKind.MIGRATION: self._migration,
        }

    @staticmethod
    def _validate(name: str, spec: OverheadSpec) -> OverheadSpec:
        if callable(spec):
            # Fail at construction, not mid-simulation: the formula must
            # accept the processor as its single positional argument.
            error = formula_arity_error(spec, "processor")
            if error is not None:
                raise RTOSError(
                    f"{name} overhead formula {spec!r} {error}"
                )
            return spec
        if isinstance(spec, bool) or not isinstance(spec, int):
            raise RTOSError(
                f"{name} overhead must be an int time or a callable, "
                f"got {spec!r}"
            )
        if spec < 0:
            raise RTOSError(f"negative {name} overhead: {spec}")
        return spec

    @staticmethod
    def _resolve(spec: OverheadSpec, processor) -> Time:
        value = spec(processor) if callable(spec) else spec
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise RTOSError(
                f"overhead formula returned {value!r}; expected a "
                "non-negative int time"
            )
        return value

    def duration(self, kind: OverheadKind, processor) -> Time:
        """Duration of the ``kind`` component at this instant on
        ``processor``: a constant as validated at construction, or the
        formula's value, checked on every call."""
        spec = self._by_kind[kind]
        if spec.__class__ is int:
            return spec  # type: ignore[return-value]
        return self._resolve(spec, processor)

    def scheduling(self, processor) -> Time:
        """Scheduling duration at this instant on ``processor``."""
        return self.duration(OverheadKind.SCHEDULING, processor)

    def context_load(self, processor) -> Time:
        """Context-load duration at this instant on ``processor``."""
        return self.duration(OverheadKind.CONTEXT_LOAD, processor)

    def context_save(self, processor) -> Time:
        """Context-save duration at this instant on ``processor``."""
        return self.duration(OverheadKind.CONTEXT_SAVE, processor)

    def migration(self, processor) -> Time:
        """Cross-core migration cost paid on the *target* ``processor``.

        Models cache/TLB reload after a scheduling domain moved a task
        between cores; charged once, just before the migrated task's
        context load.  Zero (the default) for single-core models.
        """
        return self.duration(OverheadKind.MIGRATION, processor)


#: A zero-cost RTOS (useful for functional-only simulation).
NO_OVERHEAD = Overheads()

"""Execution contexts: how a function's operations map onto a platform.

The same MCSE functional model can run

* directly on the simulation kernel -- a **hardware** function, fully
  concurrent with everything else (this module's
  :class:`HardwareContext`), or
* serialized on a processor under an RTOS -- a **software** task (the
  contexts in :mod:`repro.rtos`, which subclass
  :class:`ExecutionContext`).

A context translates the four primitive operations of a function --
*execute* (consume CPU time), *block* (suspend on a relation), *delay*
(wait wall-clock time) and *deliver* (be woken by someone else) -- into
kernel waits plus, for RTOS contexts, the scheduling protocol of the
paper's §4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..kernel.time import Time
from ..trace.records import TaskState
from .relations import Relation, Waiter

if TYPE_CHECKING:  # pragma: no cover
    from .function import Function


# Enum members as module globals: on 3.11 reading one off its class
# goes through EnumType.__getattr__, several times slower.
_CREATED = TaskState.CREATED
_RUNNING = TaskState.RUNNING
_TERMINATED = TaskState.TERMINATED
_WAITING_RESOURCE = TaskState.WAITING_RESOURCE
_WAITING = TaskState.WAITING


class ExecutionContext:
    """Abstract mapping of function operations onto a platform."""

    #: Short platform label used in traces ("hw", "rtos").
    kind = "abstract"

    def run(self, function: "Function") -> Generator:
        """Wrap the function's behavior with platform start/stop protocol."""
        raise NotImplementedError

    def execute(self, function: "Function", duration: Time) -> Generator:
        """Consume ``duration`` of CPU time (preemptible under an RTOS)."""
        raise NotImplementedError

    def block(self, function: "Function", waiter: Waiter,
              relation: Relation, timeout: Optional[Time] = None) -> Generator:
        """Suspend until ``waiter`` is delivered; returns the value.

        With a ``timeout`` the suspension is bounded: on expiry the
        waiter is withdrawn from the relation and the function resumes
        with ``waiter.delivered`` still False.
        """
        raise NotImplementedError

    def delay(self, function: "Function", duration: Time) -> Generator:
        """Suspend for wall-clock ``duration`` without consuming CPU."""
        raise NotImplementedError

    def on_deliver(self, function: "Function", waiter: Waiter) -> None:
        """React to ``function`` being woken (called on the waker's thread)."""
        raise NotImplementedError

    def after_signal(self, function: "Function",
                     relation: Relation) -> Generator:
        """Account platform costs of an operation that may have woken
        someone (RTOS scheduling duration, possible self-preemption)."""
        raise NotImplementedError


class HardwareContext(ExecutionContext):
    """Fully concurrent execution directly on the kernel.

    A hardware function is never preempted and pays no OS overhead: an
    execute is a plain timed wait, a block is a plain event wait.
    """

    kind = "hw"

    def run(self, function: "Function") -> Generator:
        function._set_state(_CREATED)
        function._set_state(_RUNNING)
        try:
            yield from function.behavior()
        finally:
            function._set_state(_TERMINATED)

    def execute(self, function: "Function", duration: Time) -> Generator:
        if duration > 0:
            yield duration

    def block(self, function: "Function", waiter: Waiter,
              relation: Relation, timeout: Optional[Time] = None) -> Generator:
        state = (
            _WAITING_RESOURCE if relation.resource else _WAITING
        )
        function._set_state(state, reason="blocked")
        if not waiter.delivered:
            if timeout is None:
                yield waiter.event
            else:
                from ..kernel.process import wait_any

                yield wait_any(waiter.event, timeout=timeout)
                if not waiter.delivered:
                    relation.withdraw(waiter)
        function._set_state(
            _RUNNING,
            reason="woken" if waiter.delivered else "timeout",
        )
        return waiter.value

    def delay(self, function: "Function", duration: Time) -> Generator:
        function._set_state(_WAITING, reason="delay")
        if duration > 0:
            yield duration
        function._set_state(_RUNNING, reason="woken")

    def on_deliver(self, function: "Function", waiter: Waiter) -> None:
        waiter.event.notify()

    def after_signal(self, function: "Function",
                     relation: Relation) -> Generator:
        return
        yield  # pragma: no cover - makes this a generator function


#: Shared stateless instance used as every function's default context.
HARDWARE_CONTEXT = HardwareContext()

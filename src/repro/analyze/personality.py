"""Personality-misuse lint: auditing the *original* kernel API calls.

A personality spec lowers to plain generic ops before elaboration
(:mod:`repro.personality`), so the structural RTS1xx rules already
cover the lowered model.  What lowering erases, though, is the API
*surface* the author actually wrote -- and two classic bug families are
only visible there:

=========  =============================================================
RTS170     a blocking kernel call inside an ISR-context task (FreeRTOS
           forbids anything but ``...FromISR`` variants in interrupt
           handlers; ITRON forbids non-``i``-prefixed service calls)
RTS171     zero-timeout polling inside a loop: a busy-wait spin on a
           queue/semaphore that burns CPU the blocking form would yield
=========  =============================================================

The builder attaches each task's validated original op list as
``Function.personality_ops`` and marks unmapped (hardware-context)
personality tasks as the ISR set; these rules scan that metadata
against the registered personality's ``blocking_ops`` and
``pollable_ops``.
"""

from __future__ import annotations

from typing import AbstractSet, Any, List

from .diagnostics import Report, rule

RTS170 = rule("RTS170", "blocking kernel API call in an ISR-context task")
RTS171 = rule("RTS171", "zero-timeout kernel poll inside a loop (busy-wait)")

#: Zero-timeout spellings (ITRON's TMO_POL constant included).
_POLL_TIMEOUTS = (0, "0", "0s", "TMO_POL")


def check_personality(report: Report, system: Any) -> None:
    """Run the RTS17x rules over a system built from a personality spec."""
    kernel = getattr(system, "personality", None)
    if not kernel:
        return
    from ..personality import PERSONALITIES  # only personality systems

    personality = PERSONALITIES.get(kernel)
    if personality is None:
        return
    blocking = personality.blocking_ops
    pollable = personality.pollable_ops
    for name, fn in system.functions.items():
        ops = getattr(fn, "personality_ops", None)
        if not ops:
            continue
        is_isr = fn.task is None  # unmapped = hardware/interrupt context
        _scan(report, name, ops, blocking, pollable,
              is_isr=is_isr, in_loop=False)


def _scan(report: Report, task: str, ops: List, blocking: AbstractSet[str],
          pollable: AbstractSet[str], *, is_isr: bool,
          in_loop: bool) -> None:
    for op in ops:
        if not isinstance(op, (list, tuple)) or not op:
            continue
        name = op[0]
        if name == "loop":
            body = op[2] if len(op) > 2 else None
            if isinstance(body, list):
                _scan(report, task, body, blocking, pollable,
                      is_isr=is_isr, in_loop=True)
            continue
        if is_isr and name in blocking:
            report.add(
                RTS170, Report.ERROR, f"task {task}",
                f"ISR-context task calls the blocking API {name!r}; an "
                "interrupt handler must never block",
                hint="use the non-blocking ISR variant (FromISR / "
                     "i-prefixed) or move the call into a task",
            )
        if (in_loop and name in pollable and len(op) > 1
                and op[-1] in _POLL_TIMEOUTS):
            report.add(
                RTS171, Report.WARNING, f"task {task}",
                f"{name!r} polls with a zero timeout inside a loop: a "
                "busy-wait that burns CPU other tasks could use",
                hint="block with a real timeout (or forever) and let "
                     "the scheduler run someone else",
            )


__all__ = ["RTS170", "RTS171", "check_personality"]

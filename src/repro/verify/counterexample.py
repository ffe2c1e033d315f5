"""Counterexample minimization.

A violating DFS or random run usually carries incidental choices that
have nothing to do with the failure.  :func:`minimize` shrinks the
recorded trail with two replay-based passes:

1. **shortest prefix** -- find the shortest forced prefix after which the
   leftmost continuation (all defaults) still violates the same
   property;
2. **zero-out** -- reset each remaining non-default choice to 0 when the
   violation survives without it.

Both passes only ever *re-run the model*, so the minimized choice
sequence is guaranteed replayable -- it is the exact sequence the final
confirming run took.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..errors import SimulationError, VerifyError
from ..kernel.time import Time
from .harness import ModelFactory, VerifyOptions, run_once
from .properties import Invariant, Violation


@dataclass(frozen=True)
class Counterexample:
    """A minimized, replayable witness of one property violation."""

    property_id: str
    message: str
    location: str
    time: Time
    #: The forced choice prefix; every decision beyond it defaults to 0.
    choices: Tuple[int, ...]
    #: Human-readable trail of the violating run (choice descriptions).
    trail: Tuple[str, ...]

    def describe(self) -> str:
        schedule = " -> ".join(self.trail) if self.trail else "<default run>"
        return (
            f"[{self.property_id}] {self.location}: {self.message}\n"
            f"    schedule: {schedule}\n"
            f"    choices:  {list(self.choices)}"
        )

    def to_dict(self) -> dict:
        return {
            "property": self.property_id,
            "message": self.message,
            "location": self.location,
            "time": self.time,
            "choices": list(self.choices),
            "trail": list(self.trail),
        }


def _preserves(factory: ModelFactory, choices: Sequence[int],
               property_id: str, options: VerifyOptions,
               invariants: Sequence[Invariant]) -> bool:
    """Does the run forced by ``choices`` still violate ``property_id``?

    A trial may force an index the schedule it leads to does not offer;
    the controller then reports a diverged replay, and such a trial does
    not preserve the violation.
    """
    try:
        outcome = run_once(factory, tuple(choices), options, invariants)
    except VerifyError:
        return False
    except SimulationError as exc:
        if isinstance(exc.__cause__, VerifyError):
            return False
        raise
    return any(v.property_id == property_id for v in outcome.violations)


def minimize(
    factory: ModelFactory,
    choices: Sequence[int],
    violation: Violation,
    options: VerifyOptions,
    invariants: Sequence[Invariant] = (),
) -> Counterexample:
    """Shrink ``choices`` while preserving ``violation``'s property."""
    target = violation.property_id
    best: List[int] = list(choices)

    # Pass 1: shortest violating prefix (leftmost continuation).
    for length in range(len(best) + 1):
        if _preserves(factory, best[:length], target, options, invariants):
            best = best[:length]
            break

    # Pass 2: zero out individual non-default choices.
    for index in range(len(best)):
        if best[index] == 0:
            continue
        trial = list(best)
        trial[index] = 0
        if _preserves(factory, trial, target, options, invariants):
            best = trial

    # Trailing defaults are implied by the replay semantics.
    while best and best[-1] == 0:
        best.pop()

    final = run_once(factory, tuple(best), options, invariants)
    witness = next(
        (v for v in final.violations if v.property_id == target), violation
    )
    return Counterexample(
        property_id=witness.property_id,
        message=witness.message,
        location=witness.location,
        time=witness.time,
        choices=tuple(best),
        trail=tuple(point.describe() for point in final.trail),
    )


__all__ = ["Counterexample", "minimize"]

"""Choice controllers: how the model checker steers a simulation.

Every source of scheduling nondeterminism in the stack funnels through
one kernel hook, :attr:`repro.kernel.simulator.Simulator.choice_controller`.
When it is ``None`` (every normal simulation) the model keeps its
deterministic tie-breaks and existing traces stay byte-identical.  When a
:class:`ChoiceController` is installed, each decision point calls
:meth:`ChoiceController.choose` and the controller both *resolves* the
decision and *records* it, producing the run's choice trail.

Decision kinds currently wired into the stack:

==============  ==========================================================
``"tie"``       ready-queue tie among policy-equivalent tasks
                (:meth:`repro.rtos.policies.SchedulingPolicy.tie_candidates`)
``"wake"``      equal-priority waiter tie on a priority-ordered relation
                wait queue (:meth:`repro.mcse.relations.Relation._pop_waiter`)
``"exec"``      execution-time interval endpoint (``"lo..hi"`` durations,
                :func:`repro.mcse.builder.resolve_duration`)
``"jitter"``    release jitter applied (0 or the function's bound)
``"preempt_mode"``  processor preemptive-mode toggle (opt-in)
==============  ==========================================================

The exploration algorithms in :mod:`repro.verify.explorer` are
*stateless* (Verisoft-style): a run is identified purely by the prefix of
choice indices it was forced to take; everything past the prefix defaults
to index 0, and the recorded trail tells the explorer where the next runs
must branch.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import VerifyError


class ChoicePoint:
    """One resolved nondeterministic decision in a run's trail."""

    __slots__ = ("kind", "key", "arity", "taken", "labels", "pruned",
                 "alternatives")

    def __init__(self, kind: str, key: str, arity: int, taken: int,
                 labels: Tuple[str, ...]) -> None:
        #: Decision kind ("tie", "wake", "exec", "jitter", "preempt_mode").
        self.kind = kind
        #: The deciding object (processor, relation or function name).
        self.key = key
        #: Number of admissible alternatives at this point.
        self.arity = arity
        #: The alternative this run took.
        self.taken = taken
        #: Human-readable labels for the alternatives (may be empty).
        self.labels = labels
        #: Set by the explorer's probe when the pre-choice state was
        #: already visited (or the depth bound was hit): the remaining
        #: alternatives need not be scheduled.
        self.pruned = False
        #: Set by the probe at a ``tie``/``migrate`` point whose ready
        #: tasks are partly interchangeable: the indices the explorer
        #: must schedule, one per class (always starting with 0).
        #: ``None`` means every alternative.
        self.alternatives: Optional[Tuple[int, ...]] = None

    def describe(self) -> str:
        label = ""
        if self.labels and self.taken < len(self.labels):
            label = f"={self.labels[self.taken]}"
        return f"{self.kind}({self.key}):{self.taken}/{self.arity}{label}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ChoicePoint {self.describe()}>"


class ChoiceController:
    """Base controller: resolve every decision to 0, record the trail."""

    def __init__(self) -> None:
        #: The decisions taken so far, in order.
        self.trail: List[ChoicePoint] = []
        #: Optional explorer hook, called with each new
        #: :class:`ChoicePoint` *before* the decision takes effect (the
        #: simulation state it observes is the pre-choice state).  Used
        #: for canonical-state dedup and ``assert_always`` invariants.
        self.probe: Optional[Callable[[ChoicePoint], None]] = None

    def choose(self, kind: str, key: str, arity: int,
               labels: Sequence[str] = ()) -> int:
        """Resolve one decision among ``arity`` alternatives."""
        if arity < 1:
            raise VerifyError(
                f"choice point {kind}({key}) offered {arity} alternatives"
            )
        taken = self._decide(kind, key, arity, len(self.trail))
        point = ChoicePoint(kind, key, arity, taken, tuple(labels))
        self.trail.append(point)
        if self.probe is not None:
            self.probe(point)
        return taken

    def _decide(self, kind: str, key: str, arity: int, position: int) -> int:
        return 0

    @property
    def choices(self) -> Tuple[int, ...]:
        """The trail as a plain index tuple (the run's identity)."""
        return tuple(point.taken for point in self.trail)


class ScriptedController(ChoiceController):
    """Force a prefix of choices, default to 0 beyond it.

    This is both the explorer's workhorse (each scheduled run is "replay
    this prefix, then follow the leftmost branch") and the counterexample
    replayer (the full violating trail is the prefix).  ``strict=True``
    additionally validates each forced decision against the recorded
    kind/key/arity, catching divergent replays when the model changed
    under the trace.
    """

    def __init__(self, prefix: Sequence[int] = (), *,
                 expected: Sequence[ChoicePoint] = (),
                 strict: bool = False) -> None:
        super().__init__()
        self.prefix = tuple(prefix)
        self.expected = tuple(expected)
        self.strict = strict

    def _decide(self, kind: str, key: str, arity: int, position: int) -> int:
        if position >= len(self.prefix):
            return 0
        forced = self.prefix[position]
        if self.strict and position < len(self.expected):
            want = self.expected[position]
            if (want.kind, want.key, want.arity) != (kind, key, arity):
                raise VerifyError(
                    f"replay diverged at choice {position}: expected "
                    f"{want.describe()}, the model offered "
                    f"{kind}({key}) with {arity} alternatives"
                )
        if forced >= arity:
            raise VerifyError(
                f"replay diverged at choice {position}: scheduled index "
                f"{forced} but {kind}({key}) offers only {arity} "
                "alternatives"
            )
        return forced


class RandomController(ChoiceController):
    """Seeded random resolution -- the fallback for large state spaces.

    Deterministic for a given seed, so a violating random run is exactly
    as replayable as a DFS run: its recorded trail is a valid
    :class:`ScriptedController` prefix.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = random.Random(seed)

    def _decide(self, kind: str, key: str, arity: int, position: int) -> int:
        if arity == 1:
            return 0
        return self._rng.randrange(arity)


__all__ = [
    "ChoicePoint",
    "ChoiceController",
    "ScriptedController",
    "RandomController",
]

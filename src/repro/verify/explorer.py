"""Exploration strategies: exhaustive DFS and randomized sampling.

The DFS is stateless a la Verisoft: each run is identified by its forced
choice prefix, the recorded trail tells the explorer which positions can
branch, and canonical-state dedup (:mod:`repro.verify.state`) prunes
re-visited subtrees -- a run stops at its first revisited free choice
point, whose future the state's first visitor already covers.
Exhausting the work stack without hitting any bound means *every*
admissible schedule within the horizon was covered.

The randomized strategy resolves every decision with a seeded RNG -- no
completeness claim, but each run is exactly as replayable as a DFS run,
so counterexamples from either strategy minimize and replay identically.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import VerifyError
from .choices import RandomController
from .counterexample import Counterexample, minimize
from .harness import (
    ExploreContext,
    ModelFactory,
    RunOutcome,
    VerifyOptions,
    run_once,
)
from .properties import Invariant, Violation
from ..analyze.diagnostics import Diagnostic


@dataclass
class VerifyStats:
    """Counters describing one exploration."""

    runs: int = 0
    choice_points: int = 0
    states: int = 0
    dedup_hits: int = 0
    depth_hits: int = 0
    #: Alternatives left unscheduled because an interchangeable ready
    #: task was scheduled in their place.
    symmetry_pruned: int = 0
    wall_s: float = 0.0

    @property
    def dedup_hit_rate(self) -> float:
        probes = self.states + self.dedup_hits
        return self.dedup_hits / probes if probes else 0.0

    @property
    def states_per_second(self) -> float:
        return self.states / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict:
        return {
            "runs": self.runs,
            "choice_points": self.choice_points,
            "states": self.states,
            "dedup_hits": self.dedup_hits,
            "dedup_hit_rate": round(self.dedup_hit_rate, 6),
            "depth_hits": self.depth_hits,
            "symmetry_pruned": self.symmetry_pruned,
            "wall_s": self.wall_s,
            "states_per_second": round(self.states_per_second, 3),
        }


@dataclass
class VerifyResult:
    """The verdict of one verification problem."""

    #: No violation found.  Combined with :attr:`complete`, this is a
    #: proof within the bound; alone it is only an absence of evidence.
    ok: bool
    #: The whole bounded space was covered (DFS only, no bound hit).
    complete: bool
    strategy: str
    stats: VerifyStats
    violations: List[Violation] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)
    sanitizer_findings: List[Diagnostic] = field(default_factory=list)

    @property
    def counterexample(self) -> Optional[Counterexample]:
        return self.counterexamples[0] if self.counterexamples else None

    def verdict(self) -> str:
        if not self.ok:
            return "violated"
        return "verified" if self.complete else "no-violation-found"

    def to_dict(self) -> Dict:
        return {
            "verdict": self.verdict(),
            "ok": self.ok,
            "complete": self.complete,
            "strategy": self.strategy,
            "stats": self.stats.to_dict(),
            "violations": [
                {
                    "property": v.property_id,
                    "location": v.location,
                    "message": v.message,
                    "time": v.time,
                }
                for v in self.violations
            ],
            "counterexamples": [c.to_dict() for c in self.counterexamples],
            "sanitizer": [d.to_dict() for d in self.sanitizer_findings],
        }


class _Exploration:
    """What one exploration accumulates, whichever strategy drives it.

    Each run counts toward the stats, adds its new sanitizer findings,
    and adds the first violation of each property not seen yet, with
    its minimized counterexample.
    """

    def __init__(self, factory: ModelFactory, options: VerifyOptions,
                 invariants: Sequence[Invariant],
                 context: ExploreContext) -> None:
        self.factory = factory
        self.options = options
        self.invariants = invariants
        self.context = context
        self.stats = VerifyStats()
        self.started = _time.perf_counter()
        self.violations: List[Violation] = []
        self.counterexamples: List[Counterexample] = []
        self.sanitizer_findings: List[Diagnostic] = []
        self._sanitizer_seen: Set[Tuple[str, str]] = set()

    def run(self, prefix: Sequence[int],
            controller: Optional[RandomController] = None) -> RunOutcome:
        outcome = run_once(self.factory, prefix, self.options,
                           self.invariants, self.context,
                           controller=controller)
        self.stats.runs += 1
        self.stats.choice_points += len(outcome.trail)
        report = outcome.sanitizer_report
        if report is not None:
            for diagnostic in report.diagnostics:
                key = (diagnostic.rule, diagnostic.location)
                if key not in self._sanitizer_seen:
                    self._sanitizer_seen.add(key)
                    self.sanitizer_findings.append(diagnostic)
        seen = {v.property_id for v in self.violations}
        for violation in outcome.violations:
            if violation.property_id not in seen:
                seen.add(violation.property_id)
                self.violations.append(violation)
                self.counterexamples.append(minimize(
                    self.factory, outcome.choices, violation,
                    self.options, self.invariants,
                ))
        return outcome

    def result(self, strategy: str, complete: bool) -> VerifyResult:
        stats, context = self.stats, self.context
        stats.states = len(context.visited)
        stats.dedup_hits = context.dedup_hits
        stats.depth_hits = context.depth_hits
        stats.wall_s = _time.perf_counter() - self.started
        return VerifyResult(
            ok=not self.violations,
            complete=complete and not self.violations,
            strategy=strategy,
            stats=stats,
            violations=self.violations,
            counterexamples=self.counterexamples,
            sanitizer_findings=self.sanitizer_findings,
        )


def explore_dfs(
    factory: ModelFactory,
    options: VerifyOptions,
    invariants: Sequence[Invariant] = (),
    *,
    max_runs: int = 10_000,
    stop_on_first: bool = True,
) -> VerifyResult:
    """Exhaustive bounded DFS over the choice tree, with state dedup.

    At a scheduling tie among interchangeable ready tasks only one task
    per class is explored (:attr:`ChoicePoint.alternatives`).
    """
    if max_runs < 1:
        raise VerifyError(f"dfs strategy needs max_runs >= 1, got {max_runs}")
    exploration = _Exploration(factory, options, invariants,
                               ExploreContext(cut_revisits=True))
    stats = exploration.stats
    stack: List[Tuple[int, ...]] = [()]
    complete = True

    while stack:
        if stats.runs >= max_runs:
            complete = False
            break
        prefix = stack.pop()
        outcome = exploration.run(prefix)
        if outcome.truncated:
            complete = False
        if outcome.violations and stop_on_first:
            complete = False  # exploration stopped early on purpose
            break

        taken = [point.taken for point in outcome.trail]
        # Reverse order: the earliest undecided position ends up on top
        # of the stack, giving the classic leftmost-first DFS.
        for position in range(len(outcome.trail) - 1, len(prefix) - 1, -1):
            point = outcome.trail[position]
            if point.pruned:
                continue
            alternatives = point.alternatives or range(point.arity)
            stats.symmetry_pruned += point.arity - len(alternatives)
            for alternative in reversed(alternatives[1:]):
                stack.append(tuple(taken[:position]) + (alternative,))

    return exploration.result("dfs", complete)


def explore_random(
    factory: ModelFactory,
    options: VerifyOptions,
    invariants: Sequence[Invariant] = (),
    *,
    runs: int = 100,
    seed: int = 0,
    stop_on_first: bool = True,
) -> VerifyResult:
    """Seeded random sampling of schedules -- the large-space fallback."""
    if runs < 1:
        raise VerifyError(f"random strategy needs runs >= 1, got {runs}")
    exploration = _Exploration(factory, options, invariants,
                               ExploreContext(symmetry=False))
    for index in range(runs):
        outcome = exploration.run(
            (), controller=RandomController(seed + index))
        # a repeated trail repeats its run, so it adds no property
        if outcome.violations and stop_on_first:
            break

    # sampling never proves anything
    return exploration.result("random", complete=False)


__all__ = [
    "VerifyStats",
    "VerifyResult",
    "explore_dfs",
    "explore_random",
]

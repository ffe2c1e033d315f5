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


def _collect_sanitizer(outcome: RunOutcome, findings: List[Diagnostic],
                       seen: Set[Tuple[str, str]]) -> None:
    report = outcome.sanitizer_report
    if report is None:
        return
    for diagnostic in report.diagnostics:
        key = (diagnostic.rule, diagnostic.location)
        if key not in seen:
            seen.add(key)
            findings.append(diagnostic)


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
    context = ExploreContext(cut_revisits=True)
    stats = VerifyStats()
    started = _time.perf_counter()
    stack: List[Tuple[int, ...]] = [()]
    violations: List[Violation] = []
    counterexamples: List[Counterexample] = []
    sanitizer_findings: List[object] = []
    sanitizer_seen: set = set()
    seen_properties: set = set()
    complete = True

    while stack:
        if stats.runs >= max_runs:
            complete = False
            break
        prefix = stack.pop()
        outcome = run_once(factory, prefix, options, invariants, context)
        stats.runs += 1
        stats.choice_points += len(outcome.trail)
        if outcome.truncated:
            complete = False
        _collect_sanitizer(outcome, sanitizer_findings, sanitizer_seen)

        if outcome.violations:
            for violation in outcome.violations:
                if violation.property_id in seen_properties:
                    continue
                seen_properties.add(violation.property_id)
                violations.append(violation)
                counterexamples.append(minimize(
                    factory, outcome.choices, violation, options, invariants
                ))
            if stop_on_first:
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

    stats.states = len(context.visited)
    stats.dedup_hits = context.dedup_hits
    stats.depth_hits = context.depth_hits
    stats.wall_s = _time.perf_counter() - started
    return VerifyResult(
        ok=not violations,
        complete=complete and not violations,
        strategy="dfs",
        stats=stats,
        violations=violations,
        counterexamples=counterexamples,
        sanitizer_findings=sanitizer_findings,
    )


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
    context = ExploreContext(symmetry=False)
    stats = VerifyStats()
    started = _time.perf_counter()
    violations: List[Violation] = []
    counterexamples: List[Counterexample] = []
    sanitizer_findings: List[object] = []
    sanitizer_seen: set = set()
    seen_properties: set = set()
    seen_trails: set = set()

    for index in range(runs):
        controller = RandomController(seed + index)
        outcome = run_once(
            factory, (), options, invariants, context, controller=controller
        )
        stats.runs += 1
        stats.choice_points += len(outcome.trail)
        _collect_sanitizer(outcome, sanitizer_findings, sanitizer_seen)
        if outcome.choices in seen_trails:
            continue
        seen_trails.add(outcome.choices)
        if outcome.violations:
            for violation in outcome.violations:
                if violation.property_id in seen_properties:
                    continue
                seen_properties.add(violation.property_id)
                violations.append(violation)
                counterexamples.append(minimize(
                    factory, outcome.choices, violation, options, invariants
                ))
            if stop_on_first:
                break

    stats.states = len(context.visited)
    stats.dedup_hits = context.dedup_hits
    stats.depth_hits = context.depth_hits
    stats.wall_s = _time.perf_counter() - started
    return VerifyResult(
        ok=not violations,
        complete=False,  # sampling never proves anything
        strategy="random",
        stats=stats,
        violations=violations,
        counterexamples=counterexamples,
        sanitizer_findings=sanitizer_findings,
    )


__all__ = [
    "VerifyStats",
    "VerifyResult",
    "explore_dfs",
    "explore_random",
]

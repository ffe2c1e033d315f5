"""One analysis context per lint: every shared fact is computed once.

:func:`~repro.analyze.model.analyze_system` builds one
:class:`LintContext` and its rules read from it instead of recomputing:
the flows (one effect tree and key summary per function), the one
:class:`~repro.analyze.blocking.BlockingModel`, and -- memoized on first
use -- per-task periodic profiles, per-processor overhead probes, the
zero-blocking RTA (RTS105, RTS180) and the blocking-charged RTA at the
configured priorities (RTS180, RTS182).  A context without a system
(:func:`~repro.analyze.model.analyze_processors`) has no flows and no
blocking model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .blocking import BlockingModel, BlockingTerm, _with_blocking
from .flow import TaskFlow, analyze_flows
from .response_time import PeriodicTask, response_time_analysis
from .schedulability import OverheadProbe, periodic_profile, probe_overheads

Responses = Dict[str, Optional[int]]


class LintContext:
    """The facts one lint shares between its rules."""

    def __init__(self, system: Any = None) -> None:
        self.system = system
        self.flows: Dict[str, TaskFlow] = (
            analyze_flows(system) if system is not None else {})
        self.model: Optional[BlockingModel] = (
            BlockingModel(system, self.flows) if system is not None
            else None)
        #: ``{task: priority}`` reassignments RTS182 found via OPA.
        self.priority_changes: Dict[str, int] = {}
        self._profile: Dict[int, Optional[PeriodicTask]] = {}
        self._profiles: Dict[int, List[PeriodicTask]] = {}
        self._overheads: Dict[int, OverheadProbe] = {}
        self._baseline: Dict[int, Responses] = {}
        self._charged: Dict[int, Tuple[Dict[str, BlockingTerm],
                                       Responses]] = {}

    def profile(self, task: Any) -> Optional[PeriodicTask]:
        """The periodic profile of one mapped task, or ``None``."""
        key = id(task)
        if key not in self._profile:
            self._profile[key] = periodic_profile(task)
        return self._profile[key]

    def profiles(self, processor: Any) -> List[PeriodicTask]:
        """The profiled tasks of ``processor``, in mapping order."""
        key = id(processor)
        if key not in self._profiles:
            self._profiles[key] = [
                profile for profile in map(self.profile, processor.tasks)
                if profile is not None
            ]
        return self._profiles[key]

    def overheads(self, processor: Any) -> OverheadProbe:
        """The processor's one overhead probe (costs and RTS120 failures)."""
        key = id(processor)
        if key not in self._overheads:
            self._overheads[key] = probe_overheads(processor)
        return self._overheads[key]

    def costs(self, processor: Any) -> Optional[Tuple[int, int]]:
        """``(context_switch, scheduling)`` probed pre-simulation."""
        return self.overheads(processor)[0]

    def zero_blocking_rta(self, processor: Any) -> Responses:
        """The processor's RTA with no blocking (costs must resolve)."""
        key = id(processor)
        if key not in self._baseline:
            context_switch, scheduling = self._resolved(processor)
            self._baseline[key] = response_time_analysis(
                self.profiles(processor), context_switch=context_switch,
                scheduling=scheduling)
        return self._baseline[key]

    def charged_rta(
        self, processor: Any,
    ) -> Tuple[Dict[str, BlockingTerm], Responses]:
        """Blocking terms and the RTA charging them at the configured
        priorities (needs a system; costs must resolve)."""
        key = id(processor)
        if key not in self._charged:
            assert self.model is not None
            context_switch, scheduling = self._resolved(processor)
            profiles = self.profiles(processor)
            terms = {profile.name: self.model.blocking(profile.name)
                     for profile in profiles}
            self._charged[key] = terms, response_time_analysis(
                [_with_blocking(profile, terms[profile.name])
                 for profile in profiles],
                context_switch=context_switch, scheduling=scheduling)
        return self._charged[key]

    def _resolved(self, processor: Any) -> Tuple[int, int]:
        costs = self.costs(processor)
        assert costs is not None
        return costs


__all__ = ["LintContext"]

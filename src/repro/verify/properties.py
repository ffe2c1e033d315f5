"""The verified property set and its runtime monitors.

Each property gets a stable rule id in the shared diagnostic catalogue
(:mod:`repro.analyze.diagnostics`), so verifier findings render through
the exact same :class:`~repro.analyze.diagnostics.Report` pipeline as the
static linters:

=========  =============================================================
RTS-V001   deadlock: the run went idle with blocked software tasks
RTS-V002   deadline miss: a watchdog expired on some explored schedule
RTS-V003   mutex safety violated, or a wakeup was lost on a relation
RTS-V004   a task's resource-wait exceeded the priority-inversion bound
RTS-V005   a user ``assert_always`` invariant evaluated false
RTS-V006   a ready higher-priority task was not dispatched within the
           preemption bound (the classic Spin-checked FreeRTOS property:
           "the highest-priority ready task runs")
RTS-V007   a ready task was starved of the CPU beyond the starvation
           bound (scheduler fairness, e.g. round-robin time slicing)
=========  =============================================================

Monitors are pure observers: they attach through the simulator's
observer hook (plus one end-of-run sweep over the model), never change
the schedule, and therefore keep explored runs byte-identical to their
later counterexample replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..analyze.diagnostics import rule
from ..errors import VerifyError
from ..kernel.process import Process, ProcessState
from ..kernel.time import Time, format_time
from ..rtos.overheads import formula_arity_error
from ..rtos.watchdog import DeadlineWatchdog
from ..trace.records import StateRecord, TaskState

if TYPE_CHECKING:
    from ..mcse.model import System

RTSV001 = rule("RTS-V001", "deadlock reachable under an explored schedule")
RTSV002 = rule("RTS-V002", "deadline miss reachable under an explored schedule")
RTSV003 = rule("RTS-V003", "mutex misuse or lost wakeup on an explored schedule")
RTSV004 = rule("RTS-V004", "priority inversion exceeds the declared bound")
RTSV005 = rule("RTS-V005", "user invariant violated on an explored schedule")
RTSV006 = rule("RTS-V006",
               "ready higher-priority task not dispatched within the bound")
RTSV007 = rule("RTS-V007", "ready task starved beyond the fairness bound")


@dataclass(frozen=True)
class Violation:
    """One property violation observed during a single run."""

    property_id: str
    message: str
    time: Time
    location: str = "system"

    def describe(self) -> str:
        return (
            f"[{self.property_id}] {self.location} at "
            f"{format_time(self.time)}: {self.message}"
        )


class Invariant:
    """A user ``assert_always`` predicate over the live system."""

    def __init__(self, fn: Callable, name: Optional[str] = None) -> None:
        error = formula_arity_error(fn, "system")
        if error is not None:
            raise VerifyError(
                f"assert_always invariant {fn!r} {error}"
            )
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "invariant")

    def holds(self, system: "System") -> bool:
        return bool(self.fn(system))


class RunMonitors:
    """All property monitors attached to one instrumented run."""

    def __init__(
        self,
        system: "System",
        *,
        invariants: Tuple[Invariant, ...] = (),
        inversion_bound: Optional[Time] = None,
        preemption_bound: Optional[Time] = None,
        starvation_bound: Optional[Time] = None,
    ) -> None:
        self.system = system
        self.invariants = invariants
        self.inversion_bound = inversion_bound
        self.preemption_bound = preemption_bound
        self.starvation_bound = starvation_bound
        self.violations: List[Violation] = []
        self._watchdogs: List[DeadlineWatchdog] = []
        self._blocked_since: Dict[str, Tuple[Time, Optional[str]]] = {}
        self._ready_since: Dict[str, Time] = {}
        self._sched_flagged: set = set()
        self._invariants_broken = set()
        self._attach()

    # ------------------------------------------------------------------
    def _attach(self) -> None:
        sim = self.system.sim
        for name, fn in self.system.functions.items():
            deadline = getattr(fn, "deadline", None)
            if deadline is not None and fn.task is not None:
                self._watchdogs.append(
                    DeadlineWatchdog(sim, name, deadline)
                )
        if self.inversion_bound is not None:
            sim.add_observer(self._observe_inversion)
        if self._scheduling_bounds:
            sim.add_observer(self._observe_scheduling)

    def detach(self) -> None:
        for watchdog in self._watchdogs:
            watchdog.disable()
        if self.inversion_bound is not None:
            self.system.sim.remove_observer(self._observe_inversion)
        if self._scheduling_bounds:
            self.system.sim.remove_observer(self._observe_scheduling)

    @property
    def _scheduling_bounds(self) -> bool:
        return (self.preemption_bound is not None
                or self.starvation_bound is not None)

    def windows(self) -> Tuple:
        """The open windows that decide future RTS-V004/V006/V007 verdicts.

        Empty when neither kind of bound is enabled, so the explorer's
        canonical state only grows for the runs that need it.
        """
        windows: Tuple = ()
        if self.inversion_bound is not None:
            windows += (tuple(sorted(self._blocked_since.items())),)
        if self._scheduling_bounds:
            windows += (tuple(sorted(self._ready_since.items())),)
        return windows

    # ------------------------------------------------------------------
    # RTS-V004: bounded priority inversion
    # ------------------------------------------------------------------
    def _observe_inversion(self, record: object) -> None:
        if not isinstance(record, StateRecord):
            return
        if record.state is TaskState.WAITING_RESOURCE:
            blocker = self._lower_priority_owner(record.task)
            self._blocked_since[record.task] = (record.time, blocker)
            return
        entry = self._blocked_since.pop(record.task, None)
        if entry is None:
            return
        since, blocker = entry
        self._check_inversion(record.task, since, blocker, record.time)

    def _lower_priority_owner(self, task_name: str) -> Optional[str]:
        fn = self.system.functions.get(task_name)
        if fn is None or fn.task is None:
            return None
        relation = getattr(fn.task, "blocked_on", None)
        owner = getattr(relation, "owner", None)
        if owner is None or owner.task is None:
            return None
        if owner.task.effective_priority < fn.task.effective_priority:
            return owner.name
        return None

    def _check_inversion(self, task: str, since: Time,
                         blocker: Optional[str], until: Time) -> None:
        bound = self.inversion_bound
        if bound is None or blocker is None:
            return
        blocked_for = until - since
        if blocked_for > bound:
            self.violations.append(Violation(
                RTSV004,
                f"blocked on a resource held by lower-priority "
                f"{blocker!r} for {format_time(blocked_for)} "
                f"(bound {format_time(bound)})",
                until,
                location=f"task {task}",
            ))

    # ------------------------------------------------------------------
    # RTS-V006/RTS-V007: scheduling properties (preemption + fairness)
    # ------------------------------------------------------------------
    def _observe_scheduling(self, record: object) -> None:
        if not isinstance(record, StateRecord):
            return
        if record.state is TaskState.READY:
            self._ready_since.setdefault(record.task, record.time)
        else:
            self._ready_since.pop(record.task, None)
        # Every scheduling event advances time; sweep the open READY
        # windows so a violation is stamped as soon as it is observable.
        self._sweep_ready_windows(record.time)

    def _sweep_ready_windows(self, now: Time) -> None:
        for task, since in list(self._ready_since.items()):
            waited = now - since
            if (self.starvation_bound is not None
                    and waited > self.starvation_bound
                    and (RTSV007, task) not in self._sched_flagged):
                self._sched_flagged.add((RTSV007, task))
                self.violations.append(Violation(
                    RTSV007,
                    f"continuously READY for {format_time(waited)} "
                    f"without being dispatched "
                    f"(bound {format_time(self.starvation_bound)})",
                    now,
                    location=f"task {task}",
                ))
            if (self.preemption_bound is not None
                    and waited > self.preemption_bound
                    and (RTSV006, task) not in self._sched_flagged):
                running = self._outprioritized_running(task)
                if running is not None:
                    self._sched_flagged.add((RTSV006, task))
                    self.violations.append(Violation(
                        RTSV006,
                        f"READY for {format_time(waited)} while the "
                        f"lower-priority task {running!r} kept the CPU "
                        f"(bound {format_time(self.preemption_bound)})",
                        now,
                        location=f"task {task}",
                    ))

    def _outprioritized_running(self, task_name: str) -> Optional[str]:
        """The lower-priority task running on ``task_name``'s CPU, if any."""
        fn = self.system.functions.get(task_name)
        if fn is None or fn.task is None:
            return None
        running = fn.task.processor.running
        if running is None or running is fn.task:
            return None
        if running.effective_priority < fn.task.effective_priority:
            return running.name
        return None

    # ------------------------------------------------------------------
    # Invariants (RTS-V005), checked at every choice point + end of run
    # ------------------------------------------------------------------
    def check_invariants(self, now: Time) -> None:
        for invariant in self.invariants:
            if invariant.name in self._invariants_broken:
                continue
            if not invariant.holds(self.system):
                self._invariants_broken.add(invariant.name)
                self.violations.append(Violation(
                    RTSV005,
                    f"assert_always({invariant.name!r}) evaluated false",
                    now,
                ))

    # ------------------------------------------------------------------
    # End-of-run sweep: deadlock, lost wakeups, deadline-miss counters
    # ------------------------------------------------------------------
    def finish(self, error: Optional[BaseException] = None, *,
               cut: bool = False) -> None:
        """Report what the run observed.

        ``cut`` marks a run the explorer stopped at a revisited state: it
        reports only what it has already observed (watchdog misses so
        far, inversion windows already past their bound, ``error``) and
        skips the sweeps that belong to the state's first visitor --
        horizon READY windows, quiescence deadlock, lost wakeups and
        final invariants.
        """
        system = self.system
        sim = system.sim
        now = sim.now
        # still-pending inversion windows count up to the horizon
        for task, (since, blocker) in list(self._blocked_since.items()):
            self._check_inversion(task, since, blocker, now)
        self._blocked_since.clear()
        # still-open READY windows count up to the horizon too: a task
        # starved until the end of the run is the canonical violation.
        if self._scheduling_bounds and not cut:
            self._sweep_ready_windows(now)
        self._ready_since.clear()

        if error is not None:
            self.violations.append(Violation(
                RTSV003, f"mutex safety violated: {error}", now,
            ))

        for watchdog in self._watchdogs:
            for activation in watchdog.missed_activations:
                self.violations.append(Violation(
                    RTSV002,
                    f"deadline {format_time(watchdog.deadline)} missed "
                    f"for the activation at {format_time(activation)}",
                    activation + watchdog.deadline,
                    location=f"task {watchdog.task_name}",
                ))

        if cut:
            return

        if not sim.pending_activity():
            blocked = sorted(
                p.name for p in sim.processes
                if isinstance(p, Process)
                and not p.daemon and not p.terminated
                and p.state is ProcessState.WAITING
            )
            if blocked:
                self.violations.append(Violation(
                    RTSV001,
                    "simulation went idle with blocked tasks: "
                    + ", ".join(blocked) + self._deadlock_chain(),
                    now,
                ))
            self._check_lost_wakeups(now)

        self.check_invariants(now)

    def _deadlock_chain(self) -> str:
        """Render who-holds-what for the classic crossed-lock deadlock."""
        parts = []
        for name, fn in self.system.functions.items():
            task = fn.task
            relation = getattr(task, "blocked_on", None) if task else None
            owner = getattr(relation, "owner", None)
            if relation is not None and owner is not None:
                parts.append(
                    f"{name} waits for {relation.name} held by {owner.name}"
                )
        if not parts:
            return ""
        return " (" + "; ".join(sorted(parts)) + ")"

    def _check_lost_wakeups(self, now: Time) -> None:
        for name, relation in self.system.relations.items():
            if relation.waiter_count == 0:
                continue
            locked = getattr(relation, "locked", None)
            if locked is False:
                self.violations.append(Violation(
                    RTSV003,
                    f"{relation.waiter_count} waiter(s) blocked on the "
                    f"*unlocked* shared variable {name!r}: a wakeup was "
                    "lost",
                    now,
                    location=f"shared {name}",
                ))
                continue
            pending = getattr(relation, "pending", None)
            if callable(pending) and pending() > 0:
                self.violations.append(Violation(
                    RTSV003,
                    f"waiter(s) blocked on event {name!r} while "
                    f"{pending()} occurrence(s) are memorized: a wakeup "
                    "was lost",
                    now,
                    location=f"event {name}",
                ))


__all__ = [
    "RTSV001",
    "RTSV002",
    "RTSV003",
    "RTSV004",
    "RTSV005",
    "RTSV006",
    "RTSV007",
    "Violation",
    "Invariant",
    "RunMonitors",
]

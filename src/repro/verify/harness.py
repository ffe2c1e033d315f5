"""Build-and-run instrumentation: one bounded, steered simulation.

The explorer never touches the kernel directly; it asks this module to
execute "the run identified by this choice prefix" and gets back a
:class:`RunOutcome` -- the full choice trail, every property violation,
and whether the depth bound truncated the branching.  Replays use the
same path with a trace recorder attached, which is what makes explored
violations and their exported counterexample traces byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, \
    Sequence, Set, Tuple

from ..errors import ModelError, SimulationError, VerifyError
from ..kernel.simulator import Simulator
from ..kernel.time import Time, format_time
from ..mcse.builder import build_system
from ..mcse.model import System
from .choices import ChoiceController, ChoicePoint, ScriptedController
from .properties import Invariant, RunMonitors, Violation
from .state import canonical_state, interchangeable

if TYPE_CHECKING:
    from ..analyze.diagnostics import Report
    from ..trace.recorder import TraceRecorder

#: A model factory: receives a fresh :class:`Simulator`, returns the
#: built (not yet run) :class:`System` living on that simulator.
ModelFactory = Callable[[Simulator], System]


@dataclass
class VerifyOptions:
    """Bounds and toggles for one verification problem."""

    #: Absolute time horizon per run (``None``: run to quiescence --
    #: only safe for terminating models).
    horizon: Optional[Time] = None
    #: Maximum explored choice depth; deeper points stop branching and
    #: mark the result incomplete.
    max_depth: int = 64
    #: Run the nondeterminism sanitizer (SAN301/302/303) during
    #: exploration runs as well.
    sanitize: bool = False
    #: RTS-V004 bound on a single continuous resource wait (``None``
    #: disables the property).
    inversion_bound: Optional[Time] = None
    #: RTS-V006 bound: how long a higher-priority task may stay READY
    #: behind a lower-priority running task (``None`` disables).
    preemption_bound: Optional[Time] = None
    #: RTS-V007 bound on any single continuous READY wait (``None``
    #: disables the fairness property).
    starvation_bound: Optional[Time] = None
    #: Also branch each processor's preemptive mode (off by default:
    #: it doubles the space per processor and most models fix the mode).
    explore_preempt_modes: bool = False

    def validate(self) -> None:
        if self.max_depth < 1:
            raise VerifyError(f"max_depth must be >= 1: {self.max_depth}")
        if self.horizon is not None and self.horizon <= 0:
            raise VerifyError(
                f"horizon must be positive: {format_time(self.horizon)}"
            )


@dataclass
class RunOutcome:
    """Everything the explorer needs to know about one completed run."""

    trail: List[ChoicePoint]
    violations: List[Violation]
    truncated: bool
    end_time: Time
    sanitizer_report: Optional["Report"] = None

    @property
    def choices(self) -> Tuple[int, ...]:
        return tuple(point.taken for point in self.trail)


@dataclass
class ExploreContext:
    """Shared dedup state and counters across one exploration.

    Visited states are stored Spin-COLLAPSE style: a canonical state
    ``(now, component, ...)`` becomes ``(now, id, ...)``, where each id
    indexes :attr:`components`, the intern table of whole components.
    Components are compared in full, so the compression is exact.
    """

    visited: Set[tuple] = field(default_factory=set)
    components: Dict[tuple, int] = field(default_factory=dict)
    dedup_hits: int = 0
    depth_hits: int = 0
    #: Stop a run at its first revisited free choice point (DFS): the
    #: state's first visitor already owns everything after it.
    cut_revisits: bool = False
    #: Offer one ready task per class of interchangeable ones at free
    #: ``tie``/``migrate`` points (:attr:`ChoicePoint.alternatives`).
    #: :func:`run_once` leaves it off under invariants or the sanitizer.
    symmetry: bool = True

    def visit(self, state: tuple) -> bool:
        """Record ``state``; ``False`` when it was already visited."""
        ids = self.components
        key = (state[0],) + tuple(
            [ids.setdefault(part, len(ids)) for part in state[1:]]
        )
        if key in self.visited:
            return False
        self.visited.add(key)
        return True


#: Choice kinds whose alternatives are ready tasks, labelled by name.
_TASK_CHOICES = ("tie", "migrate")


class _Revisited(BaseException):
    """Unwinds a run from its first revisited free choice point.

    A ``BaseException``, so model code catching ``Exception`` cannot
    swallow it.
    """


def spec_factory(spec: dict) -> ModelFactory:
    """A :data:`ModelFactory` elaborating a declarative spec each run."""

    def factory(sim: Simulator) -> System:
        return build_system(spec, sim=sim)

    return factory


def _build_instrumented(
    factory: ModelFactory,
    controller: ChoiceController,
    options: VerifyOptions,
    invariants: Sequence[Invariant],
    *,
    record: bool = False,
) -> Tuple[System, RunMonitors, Optional["TraceRecorder"]]:
    sim = Simulator("verify", sanitize=options.sanitize)
    sim.choice_controller = controller
    recorder = None
    if record:
        from ..trace.recorder import TraceRecorder

        recorder = TraceRecorder()
        sim.set_recorder(recorder)
    system = factory(sim)
    if system.sim is not sim:
        raise VerifyError(
            "the model factory must build on the simulator it is given "
            "(pass sim= through to System/build_system)"
        )
    _pre_run_choices(system, controller, options)
    monitors = RunMonitors(
        system,
        invariants=tuple(invariants),
        inversion_bound=options.inversion_bound,
        preemption_bound=options.preemption_bound,
        starvation_bound=options.starvation_bound,
    )
    return system, monitors, recorder


def _pre_run_choices(system: System, controller: ChoiceController,
                     options: VerifyOptions) -> None:
    """Branch release jitter and (opt-in) preemptive modes before t=0."""
    for name in sorted(system.functions):
        fn = system.functions[name]
        jitter = getattr(fn, "jitter", None)
        if jitter:
            taken = controller.choose(
                "jitter", name, 2,
                labels=("+0", f"+{format_time(jitter)}"),
            )
            if taken:
                fn.start_time += jitter
    if options.explore_preempt_modes:
        for name in sorted(system.processors):
            cpu = system.processors[name]
            taken = controller.choose(
                "preempt_mode", name, 2,
                labels=(
                    f"preemptive={cpu.preemptive}",
                    f"preemptive={not cpu.preemptive}",
                ),
            )
            if taken:
                cpu.set_preemptive(not cpu.preemptive)


def _drive(system: System, options: VerifyOptions) -> Optional[BaseException]:
    """Run to the horizon; a mutex-misuse ModelError becomes a finding.

    A :class:`_Revisited` cut is returned the same way, whether it came
    straight out of the kernel or wrapped as a process error.
    """
    try:
        if options.horizon is not None:
            system.run(until=options.horizon)
        else:
            system.run()
    except SimulationError as exc:
        cause = exc.__cause__
        if isinstance(cause, (ModelError, _Revisited)):
            return cause  # e.g. unlock of an unowned mutex: RTS-V003
        raise
    except (ModelError, _Revisited) as exc:
        return exc
    return None


def run_once(
    factory: ModelFactory,
    prefix: Sequence[int],
    options: VerifyOptions,
    invariants: Sequence[Invariant] = (),
    context: Optional[ExploreContext] = None,
    *,
    controller: Optional[ChoiceController] = None,
) -> RunOutcome:
    """Execute the run identified by ``prefix`` (defaults beyond it).

    With an :class:`ExploreContext`, free choice points (at or past the
    prefix) probe the canonical pre-choice state: an already-visited
    state marks the point pruned, so the explorer skips its alternatives
    -- the run that first reached the state already owns that subtree.
    With :attr:`ExploreContext.cut_revisits` the run also stops there:
    its suffix is the first visitor's too, and the point ends the trail.
    With :attr:`ExploreContext.symmetry`, a free ``tie``/``migrate``
    point whose candidates are partly interchangeable also records the
    one alternative per class the explorer needs
    (:func:`repro.verify.state.interchangeable`).  Invariants may tell
    tasks apart by name, and the sanitizer reports per-task findings, so
    either turns that reduction off.
    """
    options.validate()
    if controller is None:
        controller = ScriptedController(prefix)
    free_from = len(prefix)
    truncated = [False]
    symmetric = (context is not None and context.symmetry
                 and not invariants and not options.sanitize)
    system, monitors, _ = _build_instrumented(
        factory, controller, options, invariants
    )

    def probe(point: ChoicePoint) -> None:
        position = len(controller.trail) - 1
        if position >= options.max_depth:
            point.pruned = True
            if not truncated[0]:
                truncated[0] = True
                if context is not None:
                    context.depth_hits += 1
        elif context is not None and position >= free_from:
            if not context.visit(canonical_state(system, monitors)):
                point.pruned = True
                context.dedup_hits += 1
                if context.cut_revisits:
                    raise _Revisited()
            elif symmetric and point.kind in _TASK_CHOICES:
                point.alternatives = interchangeable(
                    system, monitors, point.labels
                )
        monitors.check_invariants(system.sim.now)

    controller.probe = probe
    error = _drive(system, options)
    controller.probe = None
    cut = isinstance(error, _Revisited)
    monitors.finish(None if cut else error, cut=cut)
    monitors.detach()
    sanitizer = system.sim.sanitizer
    return RunOutcome(
        trail=list(controller.trail),
        violations=list(monitors.violations),
        truncated=truncated[0],
        end_time=system.sim.now,
        sanitizer_report=sanitizer.report if sanitizer is not None else None,
    )


def replay(
    factory: ModelFactory,
    choices: Sequence[int],
    options: VerifyOptions,
    invariants: Sequence[Invariant] = (),
    *,
    expected: Sequence[ChoicePoint] = (),
) -> Tuple[System, "TraceRecorder", RunOutcome]:
    """Deterministically re-execute a recorded schedule, with tracing.

    Returns ``(system, recorder, outcome)``; the recorder holds the full
    trace of the failing schedule, ready for the standard
    ``trace.{vcd,svg,html}`` exports.
    """
    options.validate()
    controller = ScriptedController(
        choices, expected=expected, strict=bool(expected)
    )
    system, monitors, recorder = _build_instrumented(
        factory, controller, options, invariants, record=True
    )
    error = _drive(system, options)
    monitors.finish(error)
    monitors.detach()
    outcome = RunOutcome(
        trail=list(controller.trail),
        violations=list(monitors.violations),
        truncated=False,
        end_time=system.sim.now,
    )
    return system, recorder, outcome


__all__ = [
    "ModelFactory",
    "VerifyOptions",
    "RunOutcome",
    "ExploreContext",
    "spec_factory",
    "run_once",
    "replay",
]

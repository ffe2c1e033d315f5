"""Bounded model checking over scheduling nondeterminism.

One simulation run shows *one* schedule.  This package drives the same
kernel/RTOS stack through **every** admissible schedule up to a bound,
branching at each nondeterministic decision the model admits:

* same-delta ready-queue ties (the scheduling policy's tie set),
* wake order among equal-top-priority waiters on a relation,
* execution-time intervals (``"20us..50us"`` / ``[lo, hi]`` costs and
  ``wcet`` ranges from the builder),
* release jitter (a function's ``jitter`` annotation), and
* optionally each processor's preemptive mode.

Checked properties carry stable rule ids shared with the static
analyzers (:mod:`repro.analyze`): RTS-V001 no deadlock, RTS-V002 all
deadlines met, RTS-V003 mutex safety / no lost wakeup, RTS-V004 bounded
priority inversion, RTS-V005 user ``assert_always`` invariants, RTS-V006
bounded preemption latency and RTS-V007 scheduler fairness (the last two
power the kernel-personality differential matrix,
:mod:`repro.personality`).

A violation yields a *minimized* :class:`Counterexample`: the exact
choice sequence, deterministically replayable through the standard
:class:`~repro.kernel.simulator.Simulator` +
:class:`~repro.trace.recorder.TraceRecorder` pipeline so the failing
schedule exports to ``trace.{vcd,svg,html}`` byte-identically::

    from repro.verify import verify_spec, replay_spec

    result = verify_spec(spec, horizon=2 * MS)
    if not result.ok:
        ce = result.counterexample
        system, recorder, outcome = replay_spec(spec, ce.choices,
                                                horizon=2 * MS)
        write_vcd(recorder, "failing.vcd")

``pyrtos-sc verify`` is the CLI face of this module, and
``POST /v1/verify`` the service face.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, \
    Tuple, TYPE_CHECKING

from .._exports import lazy_exports
from ..analyze.diagnostics import Report, merge_suppressions
from ..analyze.model import analyze_system
from ..errors import VerifyError
from ..kernel.simulator import Simulator
from .choices import ChoicePoint
from .explorer import VerifyResult, explore_dfs, explore_random
from .harness import ModelFactory, RunOutcome, VerifyOptions, replay, \
    spec_factory
from .properties import RTSV002, Invariant

if TYPE_CHECKING:
    from ..mcse.model import System
    from ..trace.recorder import TraceRecorder

#: Static schedulability rules the verifier cross-checks against.
_STATIC_SCHED_RULES = frozenset(
    ("RTS103", "RTS104", "RTS105", "RTS150", "RTS151", "RTS153")
)


def assert_always(fn: Callable, name: Optional[str] = None) -> Invariant:
    """Wrap a ``system -> bool`` predicate as an RTS-V005 invariant."""
    return Invariant(fn, name)


#: The bound keywords :func:`verify_model` and :func:`replay_model` both
#: take: every :class:`VerifyOptions` field, so the two cannot drift.
BOUND_KEYWORDS = tuple(field.name for field in fields(VerifyOptions))


def _make_options(options: Optional[VerifyOptions],
                  bounds: Dict[str, Any]) -> VerifyOptions:
    unknown = sorted(set(bounds) - set(BOUND_KEYWORDS))
    if unknown:
        raise VerifyError(
            f"unknown verify keywords {unknown}; bounds are "
            f"{list(BOUND_KEYWORDS)}"
        )
    # an unset bound (None or False) keeps the VerifyOptions default
    given = {key: value for key, value in bounds.items()
             if value is not None and value is not False}
    if options is None:
        options = VerifyOptions(**given)
    elif given:
        raise VerifyError(
            "pass either options= or individual bound keywords, not both"
        )
    options.validate()
    return options


def verify_model(
    factory: ModelFactory,
    *,
    strategy: str = "dfs",
    options: Optional[VerifyOptions] = None,
    invariants: Sequence[Invariant] = (),
    max_runs: int = 10_000,
    runs: int = 100,
    seed: int = 0,
    **bounds: Any,
) -> VerifyResult:
    """Check every bounded schedule of the model built by ``factory``.

    ``strategy`` selects the exploration: ``"dfs"`` (exhaustive with
    canonical-state dedup; ``max_runs`` bounds the run count) or
    ``"random"`` (``runs`` seeded samples -- the large-space fallback).
    The bounds are ``options`` or the :data:`BOUND_KEYWORDS` (the
    :class:`VerifyOptions` fields: ``horizon``, ``max_depth``, ...).
    """
    opts = _make_options(options, bounds)
    if strategy == "dfs":
        return explore_dfs(
            factory, opts, invariants, max_runs=max_runs
        )
    if strategy == "random":
        return explore_random(
            factory, opts, invariants, runs=runs, seed=seed
        )
    raise VerifyError(
        f"unknown strategy {strategy!r} (expected 'dfs' or 'random')"
    )


def verify_spec(spec: dict, **kwargs: Any) -> VerifyResult:
    """:func:`verify_model` over a declarative builder spec."""
    return verify_model(spec_factory(spec), **kwargs)


def replay_model(
    factory: ModelFactory,
    choices: Sequence[int],
    *,
    options: Optional[VerifyOptions] = None,
    invariants: Sequence[Invariant] = (),
    expected: Sequence[ChoicePoint] = (),
    **bounds: Any,
) -> Tuple[System, "TraceRecorder", RunOutcome]:
    """Re-execute a counterexample's choices with a trace recorder.

    Takes the bounds the exploration took (``options`` or the
    :data:`BOUND_KEYWORDS`).  Returns ``(system, recorder, outcome)``.
    """
    return replay(factory, choices, _make_options(options, bounds),
                  invariants, expected=expected)


def replay_spec(spec: dict, choices: Sequence[int],
                **kwargs: Any) -> Tuple[System, "TraceRecorder", RunOutcome]:
    """:func:`replay_model` over a declarative builder spec."""
    return replay_model(spec_factory(spec), choices, **kwargs)


def build_report(
    result: VerifyResult,
    *,
    factory: Optional[ModelFactory] = None,
    suppress: Optional[Iterable[str]] = None,
) -> Report:
    """Render a :class:`VerifyResult` through the diagnostic pipeline.

    Every violation becomes an ERROR diagnostic under its ``RTS-V``
    rule; sanitizer findings ride along.  With a ``factory`` the static
    schedulability verdicts (RTS103/RTS104/RTS105 on a nominal build)
    are cross-checked against the dynamic deadline verdict, surfacing
    agreements and -- more interestingly -- the misses only exploration
    can reach (blocking, execution-time intervals, release jitter).
    """
    report = Report(suppress=merge_suppressions(suppress))
    for violation in result.violations:
        report.add(
            violation.property_id,
            Report.ERROR,
            violation.location,
            violation.message,
        )
    for diagnostic in result.sanitizer_findings:
        report.add(
            diagnostic.rule,
            diagnostic.severity,
            diagnostic.location,
            diagnostic.message,
            hint=diagnostic.hint,
        )
    counterexample = result.counterexample
    if counterexample is not None:
        report.add(
            counterexample.property_id,
            Report.INFO,
            "counterexample",
            "minimized witness schedule: choices "
            f"{list(counterexample.choices)} (replay with "
            "pyrtos-sc verify ... --replay)",
        )

    if factory is not None:
        system = factory(Simulator("verify-static"))
        static = analyze_system(system)
        flagged = sorted(
            {d.rule for d in static.diagnostics
             if d.rule in _STATIC_SCHED_RULES}
        )
        dynamic_miss = any(
            v.property_id == RTSV002 for v in result.violations
        )
        if dynamic_miss and not flagged:
            report.add(
                RTSV002, Report.INFO, "cross-check",
                "exploration reached a deadline miss that the static "
                "schedulability rules (RTS103/104/105, RTS15x) did not "
                "flag -- blocking, execution-time intervals, release "
                "jitter or a multicore placement push the task set "
                "beyond its periodic profile",
            )
        elif flagged and not dynamic_miss:
            qualifier = (
                "no miss is reachable within the explored bound"
                if result.complete
                else "no miss was found, but the exploration was bounded"
            )
            report.add(
                RTSV002, Report.INFO, "cross-check",
                f"static rules {', '.join(flagged)} flag schedulability "
                f"hazards, yet {qualifier}",
            )
        elif dynamic_miss and flagged:
            report.add(
                RTSV002, Report.INFO, "cross-check",
                f"static ({', '.join(flagged)}) and dynamic verdicts "
                "agree: the task set can miss deadlines",
            )
    return report


__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "choices": ("ChoiceController", "ChoicePoint", "RandomController",
                "ScriptedController"),
    "counterexample": ("Counterexample", "minimize"),
    "explorer": ("VerifyResult", "VerifyStats"),
    "harness": ("ModelFactory", "RunOutcome", "VerifyOptions", "replay",
                "run_once", "spec_factory"),
    "properties": ("RTSV001", "RTSV002", "RTSV003", "RTSV004", "RTSV005",
                   "RTSV006", "RTSV007", "Invariant", "RunMonitors",
                   "Violation"),
    "witness": ("WITNESS_PROPERTIES", "WitnessOutcome", "attempt_witness",
                "witness_findings", "witnessable"),
}, own=("BOUND_KEYWORDS", "assert_always", "build_report", "replay_model",
        "replay_spec", "verify_model", "verify_spec"))

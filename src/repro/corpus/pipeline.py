"""The corpus check pipeline: lint -> simulate -> verify on one spec.

Every corpus consumer (batch matrices, the fuzz loop, seed replay)
pushes a generated spec through the same three stages and reduces the
outcome to one canonical *verdict* dict:

* **lint** -- :func:`repro.analyze.analyze_system` on the built model
  (static RTA, lock-graph, partition-fit rules; no simulation);
* **simulate** -- one nominal bounded run with the verifier's
  :class:`~repro.verify.properties.RunMonitors` attached, so deadline
  misses, deadlocks and mutex misuse are *observed*, not inferred;
* **verify** -- optional bounded model checking
  (:func:`repro.verify.verify_spec`) over scheduling nondeterminism,
  with the minimized counterexample choices carried into the verdict.

The verdict dict is deliberately restricted to *stable* facts (rule
ids, property ids, end times, minimized choices) and rendered through
:func:`verdict_digest` as canonical JSON, which is what lets checked-in
corpus seeds assert byte-identical reproduction across runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..analyze import analyze_system
from ..campaign.spec import canonical_json
from ..errors import ModelError, ReproError, SimulationError
from ..kernel.simulator import Simulator
from ..kernel.time import parse_time
from ..mcse.builder import build_system
from ..verify import verify_spec
from ..verify.properties import RunMonitors

#: Static schedulability rules cross-checked against observed misses.
STATIC_SCHED_RULES = frozenset(("RTS103", "RTS104", "RTS105"))

#: Dynamic property id -> static rules that claim (a superset of) it.
#: This is the precision/recall bookkeeping spine: a static rule is
#: *confirmed* for a spec when its family property was dynamically
#: observed (nominal simulation or bounded exploration) on that spec.
STATIC_DYNAMIC_FAMILIES: Dict[str, tuple] = {
    "RTS-V001": ("RTS110", "RTS130", "RTS161", "RTS162", "RTS166"),
    "RTS-V002": ("RTS103", "RTS104", "RTS105", "RTS140", "RTS141",
                 "RTS150", "RTS151", "RTS153", "RTS180", "RTS182"),
    "RTS-V004": ("RTS183",),
    "SAN303": ("RTS165",),
}


@dataclass
class PipelineOptions:
    """Bounds for one pipeline invocation (all stages)."""

    #: Simulation/verification time bound; ``None`` runs to quiescence
    #: (only safe for terminating scenarios).
    horizon: Optional[int] = None
    #: Run the bounded model checker after the nominal simulation.
    verify: bool = True
    #: DFS run budget for the verify stage (kept small: the fuzz loop
    #: wants throughput, not proofs).
    verify_max_runs: int = 32
    #: Maximum explored choice depth for the verify stage.
    verify_max_depth: int = 12

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineOptions":
        horizon = payload.get("horizon")
        if isinstance(horizon, str):
            horizon = parse_time(horizon)
        return cls(
            horizon=horizon,
            verify=bool(payload.get("verify", True)),
            verify_max_runs=int(payload.get("verify_max_runs", 32)),
            verify_max_depth=int(payload.get("verify_max_depth", 12)),
        )

    def to_dict(self) -> Dict:
        return {
            "horizon": self.horizon,
            "verify": self.verify,
            "verify_max_runs": self.verify_max_runs,
            "verify_max_depth": self.verify_max_depth,
        }


def lint_stage(spec: Dict) -> Dict:
    """Static analysis verdict of ``spec``: build it, then
    :func:`lint_system`."""
    return lint_system(build_system(spec, sim=Simulator("corpus-lint")))


def lint_system(system: Any) -> Dict:
    """Static analysis verdict: sorted error/warning/suppressed rule ids.

    Suppressed findings (``lint_suppress`` declarations, behavior
    pragmas) are counted honestly rather than silently dropped, so
    matrix summaries can report how much of a corpus slice relies on
    muted rules.  Linting only reads the model, so the same built
    system can be simulated afterwards.
    """
    report = analyze_system(system)
    errors = sorted({d.rule for d in report.diagnostics
                     if d.severity.name == "ERROR"})
    warnings = sorted({d.rule for d in report.diagnostics
                       if d.severity.name == "WARNING"})
    suppressed = sorted({d.rule for d in report.suppressed})
    return {"errors": errors, "warnings": warnings,
            "suppressed": suppressed}


def simulate_system(system: Any, spec: Dict,
                    options: PipelineOptions) -> Dict:
    """One nominal monitored run: observed violations + end time.

    ``system`` is ``spec`` built and not yet run.  When the spec
    declares a ``max_blocking`` budget anywhere, the RTS-V004
    bounded-inversion monitor is armed against the tightest declared
    bound -- the same number the static RTS183 rule checks.
    """
    from ..verify.witness import declared_blocking_bound

    monitors = RunMonitors(system,
                           inversion_bound=declared_blocking_bound(spec))
    error: Optional[BaseException] = None
    try:
        if options.horizon is not None:
            system.run(until=options.horizon)
        else:
            system.run()
    except SimulationError as exc:
        cause = exc.__cause__
        if isinstance(cause, ModelError):
            error = cause  # mutex misuse: an observation, not a crash
        else:
            raise
    except ModelError as exc:
        error = exc
    monitors.finish(error)
    monitors.detach()
    return {
        "status": "ok",
        "end_time": system.now,
        "violations": sorted({v.property_id for v in monitors.violations}),
    }


def verify_stage(spec: Dict, options: PipelineOptions) -> Dict:
    """Bounded model checking: verdict, violated properties, witness."""
    from ..verify.witness import declared_blocking_bound

    result = verify_spec(
        spec,
        strategy="dfs",
        horizon=options.horizon,
        max_depth=options.verify_max_depth,
        max_runs=options.verify_max_runs,
        inversion_bound=declared_blocking_bound(spec),
    )
    verdict: Dict = {
        "verdict": result.verdict(),
        "complete": result.complete,
        "properties": sorted({v.property_id for v in result.violations}),
    }
    counterexample = result.counterexample
    if counterexample is not None:
        verdict["counterexample"] = {
            "property": counterexample.property_id,
            "choices": list(counterexample.choices),
        }
    return verdict


def differential_check(spec: Dict, lint: Dict, simulate: Dict) -> List[str]:
    """Static-vs-dynamic contradictions; each one is a stack bug.

    The only sound direction for generated periodic sets with zero
    overheads and no blocking is "observed miss implies static flag":
    overhead-free RTA upper-bounds sporadic response times, so a
    nominal-run deadline miss on a task set the RTA rules passed means
    analyzer and simulator disagree about the same mathematics.
    """
    findings: List[str] = []
    if "RTS-V002" not in simulate.get("violations", ()):
        return findings
    if not _rta_exact(spec):
        return findings
    flagged = STATIC_SCHED_RULES & set(lint.get("errors", ())) | \
        STATIC_SCHED_RULES & set(lint.get("warnings", ()))
    if not flagged:
        findings.append(
            "differential: nominal simulation missed a deadline but the "
            "static schedulability rules (RTS103/RTS104/RTS105) passed"
        )
    return findings


def _rta_exact(spec: Dict) -> bool:
    """Whether the spec is inside the exact-RTA model class.

    One processor, fixed-priority preemptive, zero overheads, and only
    non-blocking periodic scripts (execute/delay/loop) with annotated
    profiles -- the class where overhead-free RTA is a sound bound.
    """
    processors = spec.get("processors", ())
    if len(processors) != 1:
        return False
    cpu = processors[0]
    if cpu.get("policy", "priority_preemptive") != "priority_preemptive":
        return False
    for key in ("scheduling_duration", "context_load_duration",
                "context_save_duration"):
        if parse_time(cpu.get(key, 0)):
            return False
    for fn in spec.get("functions", ()):
        if "wcet" not in fn or "period" not in fn:
            return False
        if "jitter" in fn:
            return False
        for op in _flat_ops(fn.get("script", ())):
            if op not in ("execute", "delay", "loop"):
                return False
    return True


def _flat_ops(script: Iterable[Sequence]) -> List[str]:
    ops: List[str] = []
    for op in script:
        name = op[0]
        ops.append(name)
        if name == "loop":
            ops.extend(_flat_ops(op[2]))
    return ops


def static_dynamic_accounting(verdict: Dict) -> Dict[str, Dict]:
    """Per-property static-claimed vs dynamically-observed ledger.

    For every :data:`STATIC_DYNAMIC_FAMILIES` property with activity on
    this spec: which family rules the linter claimed (any severity),
    whether the property was observed dynamically, and the confirmed
    intersection.  Silent properties are omitted so clean specs keep a
    compact verdict.
    """
    lint = verdict.get("lint", {})
    claimed_all = set(lint.get("errors", ())) | \
        set(lint.get("warnings", ()))
    observed = set(verdict.get("simulate", {}).get("violations", ()))
    observed.update(verdict.get("verify", {}).get("properties", ()))
    ledger: Dict[str, Dict] = {}
    for prop, rules in sorted(STATIC_DYNAMIC_FAMILIES.items()):
        claimed = sorted(claimed_all & set(rules))
        seen = prop in observed
        if not claimed and not seen:
            continue
        ledger[prop] = {
            "static": claimed,
            "dynamic": seen,
            "confirmed": claimed if seen else [],
        }
    return ledger


def merge_static_dynamic(totals: Dict[str, Dict[str, int]],
                         ledger: Dict[str, Dict]) -> None:
    """Fold one spec's accounting into per-rule claimed/confirmed totals.

    ``totals[rule] = {"claimed": n, "confirmed": m}`` -- the persisted
    shape batch matrices and the fuzz loop report; ``m / n`` is the
    observed precision of the rule over the corpus slice.
    """
    for entry in ledger.values():
        for rule_id in entry["static"]:
            row = totals.setdefault(rule_id, {"claimed": 0, "confirmed": 0})
            row["claimed"] += 1
            if entry["dynamic"]:
                row["confirmed"] += 1


def run_pipeline(spec: Dict, options: Optional[PipelineOptions] = None,
                 *, stages: str = "all") -> Dict:
    """Run the staged pipeline; never raises for in-model failures.

    Returns the canonical verdict dict.  A stage that raises a
    :class:`ReproError` records a ``crash`` entry (the fuzz loop's
    highest-value finding) and later stages are skipped.
    """
    options = options or PipelineOptions()
    verdict: Dict = {}
    try:
        # One elaboration serves both stages: linting only reads the
        # model.  A spec that fails to build crashes in ``lint``.
        system = build_system(spec, sim=Simulator("corpus"))
        verdict["lint"] = lint_system(system)
    except ReproError as exc:
        verdict["crash"] = {"stage": "lint", "error": type(exc).__name__,
                            "message": str(exc)}
        return verdict
    if stages == "lint":
        return verdict
    try:
        verdict["simulate"] = simulate_system(system, spec, options)
    except ReproError as exc:
        verdict["crash"] = {"stage": "simulate",
                            "error": type(exc).__name__,
                            "message": str(exc)}
        return verdict
    verdict["differential"] = differential_check(
        spec, verdict["lint"], verdict["simulate"]
    )
    if not options.verify or stages == "simulate":
        verdict["static_dynamic"] = static_dynamic_accounting(verdict)
        return verdict
    try:
        verdict["verify"] = verify_stage(spec, options)
    except ReproError as exc:
        verdict["crash"] = {"stage": "verify", "error": type(exc).__name__,
                            "message": str(exc)}
        return verdict
    verdict["static_dynamic"] = static_dynamic_accounting(verdict)
    return verdict


def violated_properties(verdict: Dict) -> List[str]:
    """Every property id the pipeline observed, across stages."""
    properties = set(verdict.get("simulate", {}).get("violations", ()))
    properties.update(verdict.get("verify", {}).get("properties", ()))
    if verdict.get("differential"):
        properties.add("DIFFERENTIAL")
    if "crash" in verdict:
        properties.add("CRASH")
    return sorted(properties)


def verdict_digest(verdict: Dict) -> str:
    """SHA-256 over the canonical JSON of a verdict dict."""
    return hashlib.sha256(canonical_json(verdict).encode()).hexdigest()


__all__ = [
    "PipelineOptions",
    "STATIC_DYNAMIC_FAMILIES",
    "STATIC_SCHED_RULES",
    "differential_check",
    "lint_stage",
    "lint_system",
    "merge_static_dynamic",
    "run_pipeline",
    "simulate_system",
    "static_dynamic_accounting",
    "verdict_digest",
    "verify_stage",
    "violated_properties",
]

"""Machine-applicable JSON-spec patches for blocking-analysis findings.

``pyrtos-sc lint --fix`` turns the fixable RTS18x findings into minimal
patches against the *declarative spec* (generic or personality format):

=========  =============================================================
RTS181     rewrite a declared ceiling to the computed PCP ceiling
RTS182     reassign task priorities per Audsley's OPA
RTS183     tighten a declared ``max_blocking`` to the computed bound
=========  =============================================================

Each patch is a plain dict (``kind``, ``rule``, the JSON edit, and a
``discharged`` bool): :func:`plan_fixes` applies every candidate patch
to a copy of the spec and re-lints it, so a patch only ships with
``discharged: true`` when the finding it targets provably disappears.
:func:`apply_fixes` performs the edits on a deep copy (never in place);
the CLI's ``--fix --apply`` writes the result back to the spec file.

Personality specs are patched in their own vocabulary: priorities map
back through the personality (identity for FreeRTOS, negation for
µITRON's inverted scale), and fixes without a representation in that
format (e.g. ceilings, which FreeRTOS mutexes do not declare) are
simply not planned.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ReproError
from ..kernel.simulator import Simulator
from ..kernel.time import format_time, parse_time
from ..mcse.builder import build_system
from .context import LintContext
from .diagnostics import Report

#: Rules the fix engine can discharge.
FIXABLE_RULES = ("RTS181", "RTS182", "RTS183")


class FixError(ReproError):
    """A patch cannot be planned or applied against this spec."""


def _analyze(spec: Mapping[str, Any],
             suppress: Iterable[str]) -> Tuple[Report, LintContext]:
    from .model import _lint

    return _lint(build_system(dict(spec), sim=Simulator("lint-fix")),
                 suppress)


def _personality(spec: Mapping[str, Any]) -> Optional[str]:
    name = spec.get("personality")
    return str(name) if name else None


def _spec_priority(personality: Optional[str], generic: int) -> Optional[int]:
    """The spec-level value encoding a generic priority, if expressible."""
    if personality is None or personality == "freertos":
        return generic
    if personality == "uitron":
        # µITRON inverts: spec priority 1 is most urgent, lowered as -1
        spec_value = -generic
        return spec_value if spec_value >= 1 else None
    return None


def plan_fixes(spec: Mapping[str, Any], *,
               suppress: Iterable[str] = ()) -> List[Dict[str, Any]]:
    """Patches for every fixable finding, each re-linted for discharge."""
    if not isinstance(spec, Mapping):
        raise FixError(
            f"fixes need a declarative spec dict, got {type(spec).__name__}")
    report, context = _analyze(spec, suppress)
    system, model = context.system, context.model
    assert model is not None
    rules_hit = {d.rule for d in report.diagnostics}
    fixes: List[Dict[str, Any]] = []
    personality = _personality(spec)

    if "RTS181" in rules_hit and personality is None:
        for name, resource in sorted(model.resources.items()):
            if resource.protocol != "ceiling":
                continue
            declared = resource.declared_ceiling
            computed = model.computed_ceiling(name)
            if declared is None or computed is None or declared == computed:
                continue
            fixes.append({
                "rule": "RTS181",
                "kind": "ceiling",
                "relation": name,
                "ceiling": computed,
            })

    if "RTS182" in rules_hit:
        changes = context.priority_changes
        mapped: Dict[str, int] = {}
        for task, generic in sorted(changes.items()):
            value = _spec_priority(personality, generic)
            if value is None:
                mapped = {}
                break  # a partial reassignment would not be feasible
            mapped[task] = value
        if mapped:
            fixes.append({
                "rule": "RTS182",
                "kind": "priorities",
                "changes": mapped,
            })

    if "RTS183" in rules_hit:
        for name in sorted(system.functions):
            fn = system.functions[name]
            declared = getattr(fn, "max_blocking", None)
            if isinstance(declared, bool) or not isinstance(declared, int):
                continue
            term = model.blocking(name)
            if term.time is None or term.time <= declared:
                continue  # unbounded cannot be declared; within budget: ok
            fixes.append({
                "rule": "RTS183",
                "kind": "max_blocking",
                "function": name,
                "max_blocking": _as_time_spec(term.time),
            })

    for fix in fixes:
        fix["discharged"] = _discharged(spec, fix, suppress)
    return fixes


def _as_time_spec(value: int) -> Any:
    """A human-readable time string when it round-trips, else the int."""
    text = format_time(value)
    try:
        if parse_time(text) == value:
            return text
    except Exception:
        pass
    return value


def _discharged(spec: Mapping[str, Any], fix: Dict[str, Any],
                suppress: Iterable[str]) -> bool:
    """Whether re-linting the patched spec clears the targeted finding."""
    patched = apply_fixes(spec, [fix])
    report, _ = _analyze(patched, suppress)
    rule_id = fix["rule"]
    if fix["kind"] == "ceiling":
        marker = f"shared {fix['relation']}"
        return not any(d.rule == rule_id and d.location == marker
                       for d in report.diagnostics)
    if fix["kind"] == "max_blocking":
        suffix = f"/{fix['function']}"
        return not any(d.rule == rule_id and d.location.endswith(suffix)
                       for d in report.diagnostics)
    return not any(d.rule == rule_id for d in report.diagnostics)


def apply_fixes(spec: Mapping[str, Any],
                fixes: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """A deep-copied spec with every patch applied (input untouched)."""
    patched: Dict[str, Any] = copy.deepcopy(dict(spec))
    personality = _personality(spec)
    task_key = "tasks" if personality else "functions"
    for fix in fixes:
        kind = fix.get("kind")
        if kind == "priorities":
            for task, value in fix["changes"].items():
                _entry(patched, task_key, task)["priority"] = value
        elif kind == "ceiling":
            if personality:
                raise FixError(
                    "ceiling fixes have no representation in the "
                    f"{personality!r} personality format")
            _entry(patched, "relations", fix["relation"])[
                "ceiling"] = fix["ceiling"]
        elif kind == "max_blocking":
            _entry(patched, task_key, fix["function"])[
                "max_blocking"] = fix["max_blocking"]
        else:
            raise FixError(f"unknown fix kind {kind!r}")
    return patched


def _entry(spec: Dict[str, Any], section: str, name: str) -> Dict[str, Any]:
    for entry in spec.get(section, ()):
        if isinstance(entry, dict) and entry.get("name") == name:
            return entry
    raise FixError(f"spec has no {section} entry named {name!r}")


__all__ = [
    "FIXABLE_RULES",
    "FixError",
    "apply_fixes",
    "plan_fixes",
]

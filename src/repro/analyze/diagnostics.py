"""The diagnostic pipeline shared by every analyzer layer.

All three layers of :mod:`repro.analyze` -- the model linter, the source
linter and the runtime nondeterminism sanitizer -- report their findings
as :class:`Diagnostic` records collected into a :class:`Report`.  A
diagnostic carries a stable *rule id* (``RTS...`` for model rules,
``SRC...`` for source rules, ``SAN...`` for sanitizer rules; see
``docs/analysis.md`` for the catalogue), a :class:`Severity`, a
human-readable location, the finding itself, and -- whenever the rule
knows one -- a concrete fix hint.

Suppression happens at report level: a rule id in the suppression set
(assembled from ``analyze_system(suppress=...)``, per-object
``lint_suppress`` attributes and ``# pyrtos: disable=RULE`` source
comments) drops matching diagnostics before they are rendered.
"""

from __future__ import annotations

import enum
import importlib
import json
import re
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    * ``ERROR`` -- the model/run is wrong (unschedulable, deadlock, a
      formula that cannot evaluate); simulation results cannot be
      trusted.
    * ``WARNING`` -- a hazard that usually indicates a design mistake
      (priority inversion exposure, unseeded randomness) but may be
      intentional; suppressible per rule.
    * ``INFO`` -- an observation worth surfacing, never a failure.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]


#: The modules that declare rules through :func:`rule` at import time.
#: Reading :data:`RULES` or :data:`EXPLANATIONS` imports them all first,
#: so the catalogue is complete whatever the caller imported.
RULE_MODULES = (
    "repro.analyze.assign",
    "repro.analyze.blocking",
    "repro.analyze.code",
    "repro.analyze.flow",
    "repro.analyze.model",
    "repro.analyze.personality",
    "repro.analyze.sanitize",
    "repro.verify.properties",
)

_summaries: Dict[str, str] = {}
_explanations: Dict[str, str] = {}
_declared = False


class _Catalogue(Mapping[str, str]):
    """Rule id -> text, read-only, complete whatever was imported.

    The first read imports every :data:`RULE_MODULES` entry.
    """

    def __init__(self, table: Dict[str, str]) -> None:
        self._table = table

    def _complete(self) -> Dict[str, str]:
        global _declared
        if not _declared:
            # set only once every import returned: a concurrent reader
            # waits on the import locks instead of seeing a partial table
            for name in RULE_MODULES:
                importlib.import_module(name)
            _declared = True
        return self._table

    def __getitem__(self, rule_id: str) -> str:
        return self._complete()[rule_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._complete())

    def __len__(self) -> int:
        return len(self._complete())


#: Registry of every documented rule id -> one-line description;
#: ``docs/analysis.md`` is the human-facing version of this table.
RULES: Mapping[str, str] = _Catalogue(_summaries)

#: Optional long-form explanations (rendered by ``pyrtos-sc lint
#: --explain RULE``): what the rule detects, why it matters, how to fix.
EXPLANATIONS: Mapping[str, str] = _Catalogue(_explanations)


def rule(rule_id: str, summary: str, *,
         explain: Optional[str] = None) -> str:
    """Register ``rule_id`` in the catalogue and return it.

    Call it at import time from a module listed in :data:`RULE_MODULES`,
    or the rule is missing from the catalogue until that module happens
    to be imported.
    """
    _summaries[rule_id] = summary
    if explain is not None:
        _explanations[rule_id] = explain
    return rule_id


def explain_rule(rule_id: str) -> str:
    """Human-readable explanation of one rule (summary + long form)."""
    if rule_id not in RULES:
        known = ", ".join(sorted(RULES))
        raise KeyError(f"unknown rule {rule_id!r}; known rules: {known}")
    text = f"{rule_id}: {RULES[rule_id]}"
    long_form = EXPLANATIONS.get(rule_id)
    if long_form:
        text += "\n\n" + long_form
    return text


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule at one location."""

    rule: str
    severity: Severity
    location: str
    message: str
    hint: Optional[str] = None
    #: Source line for file-based findings, ``None`` for model findings.
    line: Optional[int] = None

    def format(self) -> str:
        """Render as a one-per-line, grep-friendly text diagnostic."""
        where = self.location
        if self.line is not None:
            where = f"{where}:{self.line}"
        text = f"{where}: {self.severity.value} [{self.rule}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["severity"] = self.severity.value
        return payload


@dataclass
class Report:
    """An ordered collection of diagnostics with filtering and rendering."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Rule ids dropped from the report (suppressed findings are kept in
    #: :attr:`suppressed` so tooling can still count them).
    suppress: Set[str] = field(default_factory=set)
    suppressed: List[Diagnostic] = field(default_factory=list)

    # Severity shorthands so rule code reads ``report.add(ID, report.ERROR, ...)``.
    ERROR = Severity.ERROR
    WARNING = Severity.WARNING
    INFO = Severity.INFO

    def add(
        self,
        rule_id: str,
        severity: Severity,
        location: str,
        message: str,
        hint: Optional[str] = None,
        line: Optional[int] = None,
    ) -> Optional[Diagnostic]:
        """Record one finding (or stash it when suppressed)."""
        diagnostic = Diagnostic(rule_id, severity, location, message, hint, line)
        if rule_id in self.suppress:
            self.suppressed.append(diagnostic)
            return None
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "Report") -> "Report":
        """Merge ``other``'s findings (and suppressed findings) into this."""
        self.diagnostics.extend(other.diagnostics)
        self.suppressed.extend(other.suppressed)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule_id]

    @property
    def rule_ids(self) -> Set[str]:
        return {d.rule for d in self.diagnostics}

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    def ok(self, *, strict: bool = False) -> bool:
        """Whether the report passes: no errors (strict: no warnings)."""
        if self.errors:
            return False
        if strict and self.warnings:
            return False
        return True

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        return {
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.by_severity(Severity.INFO)),
            "suppressed": len(self.suppressed),
        }

    def format_text(self) -> str:
        """All findings, most severe first, plus a one-line summary."""
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.rule, d.location, d.line or 0),
        )
        lines = [d.format() for d in ordered]
        counts = self.summary()
        lines.append(
            f"{counts['errors']} error(s), {counts['warnings']} warning(s), "
            f"{counts['infos']} info(s)"
            + (f", {counts['suppressed']} suppressed" if counts["suppressed"]
               else "")
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
            "summary": self.summary(),
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def merge_suppressions(*sources: Iterable[str]) -> Set[str]:
    """Union of suppression sets from any mix of iterables (None-safe)."""
    merged: Set[str] = set()
    for source in sources:
        if source:
            merged.update(source)
    return merged


def object_suppressions(obj: object) -> Set[str]:
    """The ``lint_suppress`` rule-id set declared on a model object."""
    declared = getattr(obj, "lint_suppress", None)
    if not declared:
        return set()
    if isinstance(declared, str):
        return {declared}
    return set(declared)


_PRAGMA = re.compile(r"#\s*pyrtos:\s*disable=([A-Za-z0-9_,\s]+)")


def _pragmas(text: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """(file-wide suppressions, per-line suppressions) from comments."""
    file_wide: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if not match:
            continue
        rules = {part.strip() for part in match.group(1).split(",")
                 if part.strip()}
        if line.lstrip().startswith("#"):
            file_wide.update(rules)
        else:
            per_line.setdefault(lineno, set()).update(rules)
    return file_wide, per_line

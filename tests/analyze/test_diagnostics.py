"""Units for the shared Diagnostic/Report pipeline."""

import json

from repro.analyze import RULES, Diagnostic, Report, Severity
from repro.analyze.diagnostics import (
    merge_suppressions,
    object_suppressions,
    rule,
)

from ..fresh import run_fresh


class TestDiagnostic:
    def test_format_with_line_and_hint(self):
        d = Diagnostic("RTS999", Severity.ERROR, "file.py", "boom",
                       hint="do not boom", line=7)
        text = d.format()
        assert text.startswith("file.py:7: error [RTS999] boom")
        assert "hint: do not boom" in text

    def test_format_without_line(self):
        d = Diagnostic("RTS999", Severity.WARNING, "processor cpu", "meh")
        assert d.format() == "processor cpu: warning [RTS999] meh"

    def test_to_dict_serializes_severity(self):
        d = Diagnostic("RTS999", Severity.INFO, "x", "y")
        payload = d.to_dict()
        assert payload["severity"] == "info"
        json.dumps(payload)  # round-trippable


class TestReport:
    def test_ok_semantics(self):
        report = Report()
        assert report.ok() and report.ok(strict=True)
        report.add("A1", Severity.WARNING, "loc", "warn")
        assert report.ok() and not report.ok(strict=True)
        report.add("A2", Severity.ERROR, "loc", "err")
        assert not report.ok()

    def test_suppression_stashes_not_drops(self):
        report = Report(suppress={"A1"})
        assert report.add("A1", Severity.ERROR, "loc", "hidden") is None
        assert report.ok()  # the suppressed error no longer fails the report
        assert report.add("A2", Severity.ERROR, "loc", "shown") is not None
        assert len(report.diagnostics) == 1
        assert len(report.suppressed) == 1
        assert report.summary()["suppressed"] == 1

    def test_format_text_orders_errors_first(self):
        report = Report()
        report.add("B1", Severity.WARNING, "w", "warn first added")
        report.add("B2", Severity.ERROR, "e", "error second added")
        lines = report.format_text().splitlines()
        assert "[B2]" in lines[0]
        assert "1 error(s), 1 warning(s)" in lines[-1]

    def test_to_dict_schema(self):
        report = Report()
        report.add("C1", Severity.ERROR, "loc", "msg", hint="h", line=3)
        payload = report.to_dict()
        assert set(payload) == {"diagnostics", "suppressed", "summary"}
        assert payload["summary"]["errors"] == 1
        (entry,) = payload["diagnostics"]
        assert {"rule", "severity", "location", "message"} <= set(entry)
        json.loads(report.to_json())

    def test_by_rule_and_rule_ids(self):
        report = Report()
        report.add("D1", Severity.INFO, "a", "x")
        report.add("D1", Severity.INFO, "b", "y")
        report.add("D2", Severity.INFO, "c", "z")
        assert len(report.by_rule("D1")) == 2
        assert report.rule_ids == {"D1", "D2"}


class TestRegistry:
    def test_rule_registers_and_returns_id(self):
        rid = rule("TST900", "a test rule")
        assert rid == "TST900"
        assert RULES["TST900"] == "a test rule"

    def test_all_shipped_rules_are_registered(self):
        expected = {
            "RTS101", "RTS102", "RTS103", "RTS104", "RTS105",
            "RTS110", "RTS111", "RTS112", "RTS120", "RTS130",
            "RTS140", "RTS141",
            "SRC000", "SRC201", "SRC202", "SRC210",
            "SAN301", "SAN302",
        }
        assert expected <= set(RULES)
        assert len(RULES) >= 40


class TestSuppressionHelpers:
    def test_merge_handles_none_and_strings(self):
        assert merge_suppressions(None, ("A",), {"B"}, []) == {"A", "B"}

    def test_object_suppressions_string_and_iterable(self):
        class Obj:
            pass

        obj = Obj()
        assert object_suppressions(obj) == set()
        obj.lint_suppress = "R1"
        assert object_suppressions(obj) == {"R1"}
        obj.lint_suppress = ("R1", "R2")
        assert object_suppressions(obj) == {"R1", "R2"}


CATALOGUE_IN_FRESH_PROCESS = """
import importlib, json, pkgutil, sys
import repro
from repro.analyze.diagnostics import EXPLANATIONS, RULES, Report, \\
    explain_rule
from repro.analyze.sarif import report_to_sarif

def snapshot():
    report = Report()
    report.add("SAN301", Report.WARNING, "sim", "two writers")
    sarif = report_to_sarif(report, artifact="spec.json")
    rules = sarif["runs"][0]["tool"]["driver"]["rules"]
    return [dict(RULES), dict(EXPLANATIONS), explain_rule("SAN301"),
            rules[0]["shortDescription"]["text"]]

first = snapshot()
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print(json.dumps([first, snapshot() == first]))
"""


class TestCatalogueIsComplete:
    """The catalogue never depends on what happened to be imported."""

    def test_fresh_import_sees_every_rule(self):
        (rules, explanations, explained, sarif_text), unchanged = \
            json.loads(run_fresh("-c", CATALOGUE_IN_FRESH_PROCESS))
        assert unchanged
        assert {"SAN301", "SAN302", "SAN303", "SRC201", "RTS-V001",
                "RTS101", "RTS160", "RTS180"} <= set(rules)
        assert explanations
        assert explained.startswith("SAN301: conflicting same-delta writes")
        assert sarif_text == rules["SAN301"]

    def test_cli_explains_a_verifier_rule(self):
        out = run_fresh("-m", "repro.cli", "lint", "--explain", "RTS-V001")
        assert out.startswith("RTS-V001: ")

"""Tests for the HTML report generator."""

import pytest

from repro.kernel.time import US
from repro.trace import (
    ConstraintSet,
    ReactionConstraint,
    TraceRecorder,
    render_report,
    save_report,
)

from ..rtos.helpers import build_fig6_system


@pytest.fixture()
def fig6():
    system, _ = build_fig6_system("procedural")
    recorder = TraceRecorder(system.sim)
    system.run()
    return system, recorder


class TestHtmlReport:
    def test_is_valid_html_with_all_sections(self, fig6):
        system, recorder = fig6
        html = render_report(system, recorder)
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        for section in ("TimeLine", "Task statistics", "Relations",
                        "Processors"):
            assert section in html

    def test_embeds_svg_and_tasks(self, fig6):
        system, recorder = fig6
        html = render_report(system, recorder)
        assert "<svg" in html
        for task in system.functions:
            assert task in html

    def test_constraint_verdicts(self, fig6):
        system, recorder = fig6
        constraints = ConstraintSet()
        constraints.add(ReactionConstraint("Clk", "Function_1", 15 * US))
        constraints.add(
            ReactionConstraint("Clk", "Function_1", 1 * US, name="too_tight")
        )
        html = render_report(system, recorder, constraints=constraints)
        assert "Timing constraints" in html
        assert 'class="pass">PASS' in html
        assert 'class="fail">FAIL' in html
        assert "too_tight" in html

    def test_title_escaped(self, fig6):
        system, recorder = fig6
        html = render_report(system, recorder, title="a <b> & c")
        assert "a &lt;b&gt; &amp; c" in html

    def test_save_report(self, fig6, tmp_path):
        system, recorder = fig6
        path = tmp_path / "report.html"
        save_report(system, recorder, str(path))
        assert path.read_text().startswith("<!DOCTYPE html>")

    def test_failed_render_writes_no_file(self, fig6, tmp_path):
        _, recorder = fig6
        path = tmp_path / "broken.html"
        with pytest.raises(AttributeError):
            save_report(None, recorder, str(path))
        assert not path.exists()

    def test_report_parses_as_xmlish(self, fig6):
        """The SVG payload inside the report is well-formed XML."""
        import xml.etree.ElementTree as ET

        system, recorder = fig6
        html = render_report(system, recorder)
        svg_start = html.index("<svg")
        svg_end = html.index("</svg>") + len("</svg>")
        ET.fromstring(html[svg_start:svg_end])

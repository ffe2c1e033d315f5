"""Tests for the SVG and VCD exporters."""

import io

import pytest

from repro.trace import TimelineChart, TraceRecorder, render_svg, save_svg, write_vcd
from repro.trace.vcd import _identifier

from ..rtos.helpers import build_fig6_system


def fig6_recorder():
    system, _ = build_fig6_system("procedural")
    recorder = TraceRecorder(system.sim)
    system.run()
    return system, recorder


class TestSvg:
    def test_valid_xml(self):
        import xml.etree.ElementTree as ET

        _, recorder = fig6_recorder()
        chart = TimelineChart.from_recorder(recorder)
        svg = render_svg(chart, title="Figure 6")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contains_all_task_labels(self):
        _, recorder = fig6_recorder()
        chart = TimelineChart.from_recorder(recorder)
        svg = render_svg(chart)
        for task in chart.tasks():
            assert task in svg

    def test_contains_overhead_rects_and_arrows(self):
        _, recorder = fig6_recorder()
        chart = TimelineChart.from_recorder(recorder)
        svg = render_svg(chart)
        assert "scheduling" in svg  # overhead tooltip
        assert "arrowhead" in svg

    def test_save_svg(self, tmp_path):
        _, recorder = fig6_recorder()
        chart = TimelineChart.from_recorder(recorder)
        path = tmp_path / "fig6.svg"
        save_svg(chart, str(path), title="Fig 6")
        assert path.read_text().startswith("<svg")

    def test_failed_render_writes_no_file(self, tmp_path):
        path = tmp_path / "broken.svg"
        with pytest.raises(AttributeError):
            save_svg(None, str(path))
        assert not path.exists()


class TestVcd:
    def test_header_and_vars(self):
        _, recorder = fig6_recorder()
        out = io.StringIO()
        write_vcd(recorder, out)
        text = out.getvalue()
        assert "$timescale 1fs $end" in text
        assert "$enddefinitions $end" in text
        assert "Function_1_state" in text
        assert "Processor_running" in text
        assert "Processor_preempt" in text

    def test_time_marks_monotonic(self):
        _, recorder = fig6_recorder()
        out = io.StringIO()
        write_vcd(recorder, out)
        marks = [
            int(line[1:])
            for line in out.getvalue().splitlines()
            if line.startswith("#")
        ]
        assert marks == sorted(marks)

    def test_state_changes_dumped(self):
        _, recorder = fig6_recorder()
        out = io.StringIO()
        write_vcd(recorder, out)
        text = out.getvalue()
        assert "srunning" in text
        assert "sready" in text

    def test_preemption_pulse(self):
        _, recorder = fig6_recorder()
        out = io.StringIO()
        write_vcd(recorder, out)
        lines = out.getvalue().splitlines()
        rising = [l for l in lines if l.startswith("1")]
        assert rising  # the Fig-6 run contains exactly one preemption


class TestIdentifiers:
    def test_unique_for_many_indices(self):
        idents = {_identifier(i) for i in range(5000)}
        assert len(idents) == 5000

    def test_compact(self):
        assert len(_identifier(0)) == 1
        assert len(_identifier(93)) == 1
        assert len(_identifier(94)) == 2

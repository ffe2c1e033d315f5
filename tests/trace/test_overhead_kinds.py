"""Every RTOS overhead kind renders in every TimeLine exporter."""

import pytest

from repro.kernel.time import US
from repro.trace import (
    OverheadKind,
    OverheadRecord,
    TimelineChart,
    TraceRecorder,
    render_report,
    render_svg,
)
from repro.trace.svg import OVERHEAD_COLORS
from repro.trace.timeline import OVERHEAD_SYMBOLS

from ..rtos.helpers import build_fig6_system

KINDS = list(OverheadKind)


def fig6_with_overhead(kind):
    """fig6, plus one window of ``kind`` on its processor after the run."""
    system, _ = build_fig6_system("procedural")
    recorder = TraceRecorder(system.sim)
    system.run()
    recorder.add(OverheadRecord(time=system.now, processor="Processor",
                                kind=kind, duration=2 * US))
    return system, recorder


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
class TestEveryOverheadKind:
    def test_ascii(self, kind):
        _, recorder = fig6_with_overhead(kind)
        text = TimelineChart.from_recorder(recorder).render_ascii(width=60)
        processor_row = next(line for line in text.splitlines()
                             if line.startswith("Processor"))
        assert OVERHEAD_SYMBOLS[kind] in processor_row

    def test_svg(self, kind):
        _, recorder = fig6_with_overhead(kind)
        svg = render_svg(TimelineChart.from_recorder(recorder))
        assert f'fill="{OVERHEAD_COLORS[kind]}"' in svg
        assert f"<title>{kind.value} " in svg

    def test_html(self, kind):
        system, recorder = fig6_with_overhead(kind)
        assert f"<title>{kind.value} " in render_report(system, recorder)


def test_symbols_and_colors_are_distinct():
    assert len(set(OVERHEAD_SYMBOLS.values())) == len(KINDS)
    assert len(set(OVERHEAD_COLORS.values())) == len(KINDS)

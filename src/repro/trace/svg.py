"""SVG export of TimeLine charts (no external dependencies).

Produces a self-contained SVG file laid out like the paper's Figure 6:
one horizontal band per task with colored state segments, vertical
arrows for relation accesses, hatched slices for RTOS overheads on
processor bands, and a time axis.
"""

from __future__ import annotations

import html
from typing import List, Optional

from ..kernel.time import Time, format_time
from .records import AccessKind, OverheadKind, TaskState
from .timeline import TimelineChart

#: Fill colors per task state.
STATE_COLORS = {
    TaskState.RUNNING: "#4caf50",
    TaskState.READY: "#ffc107",
    TaskState.WAITING: "#e0e0e0",
    TaskState.WAITING_RESOURCE: "#f44336",
    TaskState.CREATED: "#90caf9",
    TaskState.TERMINATED: "#9e9e9e",
}

OVERHEAD_COLORS = {
    OverheadKind.CONTEXT_SAVE: "#7e57c2",
    OverheadKind.SCHEDULING: "#5c6bc0",
    OverheadKind.CONTEXT_LOAD: "#26a69a",
    OverheadKind.MIGRATION: "#ef6c00",
}

_DOWN_ARROWS = (AccessKind.SIGNAL, AccessKind.WRITE)

ROW_HEIGHT = 26
ROW_GAP = 8
MARGIN_LEFT = 140
MARGIN_TOP = 30
MARGIN_BOTTOM = 40
AXIS_TICKS = 10


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG/HTML text content."""
    return html.escape(text, quote=False)


def render_svg(
    chart: TimelineChart,
    width: int = 1000,
    title: Optional[str] = None,
) -> str:
    """Render ``chart`` to an SVG document string."""
    span = max(chart.end - chart.start, 1)
    plot_width = width - MARGIN_LEFT - 20

    def x(t: Time) -> float:
        return MARGIN_LEFT + (t - chart.start) * plot_width / span

    rows = list(chart.task_segments) + list(chart.overheads)
    height = (
        MARGIN_TOP + len(rows) * (ROW_HEIGHT + ROW_GAP) + MARGIN_BOTTOM
    )
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2}" y="18" text-anchor="middle" '
            f'font-size="14">{escape(title)}</text>'
        )

    y = MARGIN_TOP
    for task in chart.task_segments:
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + ROW_HEIGHT / 2 + 4}" '
            f'text-anchor="end">{escape(task)}</text>'
        )
        for segment in chart.task_segments[task]:
            x0, x1 = x(segment.start), x(segment.end)
            w = max(x1 - x0, 0.5)
            color = STATE_COLORS[segment.state]
            parts.append(
                f'<rect x="{x0:.2f}" y="{y}" width="{w:.2f}" '
                f'height="{ROW_HEIGHT}" fill="{color}">'
                f"<title>{escape(task)}: {segment.state.value} "
                f"{format_time(segment.start)}..{format_time(segment.end)}"
                f"</title></rect>"
            )
        for arrow in chart.arrows:
            if arrow.task != task:
                continue
            ax = x(arrow.time)
            down = arrow.kind in _DOWN_ARROWS
            y0, y1 = (y - 6, y + ROW_HEIGHT / 2) if down else (
                y + ROW_HEIGHT + 6, y + ROW_HEIGHT / 2,
            )
            parts.append(
                f'<line x1="{ax:.2f}" y1="{y0}" x2="{ax:.2f}" y2="{y1}" '
                f'stroke="black" stroke-width="1.5" '
                f'marker-end="url(#arrowhead)">'
                f"<title>{arrow.kind.value} {escape(arrow.relation)} at "
                f"{format_time(arrow.time)}</title></line>"
            )
        y += ROW_HEIGHT + ROW_GAP

    for processor in chart.overheads:
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{y + ROW_HEIGHT / 2 + 4}" '
            f'text-anchor="end">{escape(processor)} (RTOS)</text>'
        )
        for window in chart.overheads[processor]:
            x0, x1 = x(window.start), x(window.end)
            parts.append(
                f'<rect x="{x0:.2f}" y="{y + 4}" '
                f'width="{max(x1 - x0, 0.5):.2f}" height="{ROW_HEIGHT - 8}" '
                f'fill="{OVERHEAD_COLORS[window.kind]}">'
                f"<title>{window.kind.value} "
                f"{format_time(window.start)}..{format_time(window.end)}"
                f"</title></rect>"
            )
        y += ROW_HEIGHT + ROW_GAP

    # time axis
    axis_y = y + 8
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{axis_y}" '
        f'x2="{MARGIN_LEFT + plot_width}" y2="{axis_y}" stroke="black"/>'
    )
    for i in range(AXIS_TICKS + 1):
        t = chart.start + span * i // AXIS_TICKS
        tx = x(t)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{axis_y}" x2="{tx:.2f}" '
            f'y2="{axis_y + 5}" stroke="black"/>'
            f'<text x="{tx:.2f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-size="10">{format_time(t)}</text>'
        )

    parts.append(
        '<defs><marker id="arrowhead" markerWidth="6" markerHeight="6" '
        'refX="3" refY="5" orient="auto">'
        '<path d="M0,0 L6,0 L3,6 z" fill="black"/></marker></defs>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(chart: TimelineChart, path: str, **kwargs) -> None:
    """Render and write the chart to ``path``."""
    # render before opening, so a failed render leaves no file behind
    text = render_svg(chart, **kwargs)
    with open(path, "w") as handle:
        handle.write(text)

"""Self-contained HTML simulation reports.

Bundles everything the paper's tool shows -- the TimeLine chart (as
embedded SVG), the Figure-8 statistics tables, processor counters and an
optional timing-constraint verdict -- into one dependency-free HTML file
a designer can archive or mail around.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..kernel.time import format_time
from .recorder import TraceRecorder
from .statistics import (
    RelationStats,
    TaskStats,
    relation_stats,
    task_stats_from_functions,
)
from .svg import escape, render_svg
from .timeline import TimelineChart

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #ccc; padding: 4px 10px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f0f0f0; }
.pass { color: #2e7d32; font-weight: 600; }
.fail { color: #c62828; font-weight: 600; }
.meta { color: #666; font-size: 0.9em; }
"""


def _task_table(stats: List[TaskStats]) -> str:
    rows = [
        "<table><tr><th>task</th><th>processor</th><th>activity</th>"
        "<th>preempted</th><th>ready</th><th>waiting</th>"
        "<th>resource</th></tr>"
    ]
    for s in stats:
        rows.append(
            f"<tr><td>{escape(s.name)}</td>"
            f"<td>{escape(s.processor or '-')}</td>"
            f"<td>{s.activity_ratio:.2%}</td>"
            f"<td>{s.preempted_ratio:.2%}</td>"
            f"<td>{s.ready_ratio:.2%}</td>"
            f"<td>{s.waiting_ratio:.2%}</td>"
            f"<td>{s.waiting_resource_ratio:.2%}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _relation_table(stats: List[RelationStats]) -> str:
    rows = [
        "<table><tr><th>relation</th><th>kind</th><th>utilization</th>"
        "<th>accesses</th><th>blocked</th></tr>"
    ]
    for s in stats:
        rows.append(
            f"<tr><td>{escape(s.name)}</td><td>{s.kind}</td>"
            f"<td>{s.utilization:.2%}</td><td>{s.access_count}</td>"
            f"<td>{s.blocked_count}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _processor_table(processors: Iterable) -> str:
    rows = [
        "<table><tr><th>processor</th><th>engine</th><th>policy</th>"
        "<th>utilization</th><th>dispatches</th><th>preemptions</th>"
        "<th>overhead</th></tr>"
    ]
    for cpu in processors:
        info = cpu.stats()
        rows.append(
            f"<tr><td>{escape(info['processor'])}</td>"
            f"<td>{info['engine']}</td><td>{info['policy']}</td>"
            f"<td>{info['utilization']:.2%}</td>"
            f"<td>{info['dispatches']}</td><td>{info['preemptions']}</td>"
            f"<td>{format_time(info['overhead_time'])}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def _constraint_section(constraints, recorder: TraceRecorder) -> str:
    rows = ["<table><tr><th>constraint</th><th>verdict</th>"
            "<th>details</th></tr>"]
    for constraint in constraints.constraints:
        violations = constraint.check(recorder)
        verdict = (
            '<span class="pass">PASS</span>' if not violations
            else f'<span class="fail">FAIL ({len(violations)})</span>'
        )
        details = "<br>".join(escape(v.detail) for v in violations[:3])
        rows.append(
            f"<tr><td>{escape(constraint.name)}</td><td>{verdict}</td>"
            f"<td>{details}</td></tr>"
        )
    rows.append("</table>")
    return "".join(rows)


def render_report(
    system,
    recorder: TraceRecorder,
    *,
    title: Optional[str] = None,
    constraints=None,
    svg_width: int = 1100,
) -> str:
    """Render a complete HTML report for a finished simulation.

    ``system`` is the :class:`~repro.mcse.model.System` that ran with
    ``recorder`` attached; ``constraints`` is an optional
    :class:`~repro.trace.constraints.ConstraintSet`.
    """
    title = title or f"Simulation report: {system.name}"
    chart = TimelineChart.from_recorder(recorder)
    svg = render_svg(chart, width=svg_width)
    tasks = task_stats_from_functions(system.functions.values())
    relations = relation_stats(system.relations.values())

    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>{escape(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>{escape(title)}</h1>",
        f"<p class='meta'>simulated time: {format_time(system.now)} "
        f"&mdash; {len(recorder)} trace records &mdash; "
        f"{len(system.functions)} tasks on "
        f"{len(system.processors)} RTOS processor(s)</p>",
        "<h2>TimeLine</h2>",
        svg,
        "<h2>Task statistics (Figure 8)</h2>",
        _task_table(tasks),
    ]
    if relations:
        parts += ["<h2>Relations</h2>", _relation_table(relations)]
    if system.processors:
        parts += ["<h2>Processors</h2>",
                  _processor_table(system.processors.values())]
    if constraints is not None and constraints.constraints:
        parts += ["<h2>Timing constraints</h2>",
                  _constraint_section(constraints, recorder)]
    parts.append("</body></html>")
    return "\n".join(parts)


def save_report(system, recorder: TraceRecorder, path: str, **kwargs) -> None:
    """Render and write the HTML report to ``path``."""
    # render before opening, so a failed render leaves no file behind
    text = render_report(system, recorder, **kwargs)
    with open(path, "w") as handle:
        handle.write(text)

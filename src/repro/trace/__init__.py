"""Trace recording, TimeLine charts, statistics, measurements, exporters.

The result-exploitation layer of the paper's §5: attach a
:class:`TraceRecorder` to a simulator, run, then build a
:class:`TimelineChart` (ASCII or SVG), compute the Figure-8 statistics,
measure latencies (``measurements``), check timing constraints
(``constraints``), or export to VCD for a waveform viewer.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "constraints": ("Constraint", "ConstraintSet", "DeadlineConstraint",
                    "JitterConstraint", "PrecedenceConstraint",
                    "ReactionConstraint", "ThroughputConstraint",
                    "Violation"),
    "diff": ("TraceDivergence", "diff_traces", "format_diff",
             "traces_equal"),
    "html": ("render_report", "save_report"),
    "measurements": ("Interval", "ascii_histogram", "blocking_intervals",
                     "latency_summary", "percentile", "reaction_latencies",
                     "response_times", "running_starts", "state_intervals",
                     "stimulus_times", "switch_sequences"),
    "recorder": ("TraceRecorder",),
    "records": ("AccessKind", "AccessRecord", "InterruptRecord",
                "MarkerRecord", "MigrationRecord", "OverheadKind",
                "OverheadRecord", "PreemptionRecord", "StateRecord",
                "TaskState", "TraceRecord"),
    "statistics": ("RelationStats", "TaskStats", "format_report",
                   "relation_stats", "task_stats_from_functions",
                   "task_stats_from_records"),
    "svg": ("render_svg", "save_svg"),
    "timeline": ("Arrow", "OverheadWindow", "Segment", "TimelineChart"),
    "vcd": ("save_vcd", "write_vcd"),
})

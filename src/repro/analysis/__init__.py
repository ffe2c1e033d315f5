"""Analysis on simulated traces: measurements, constraints, RTA."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "constraints": ("Constraint", "ConstraintSet", "DeadlineConstraint",
                    "JitterConstraint", "PrecedenceConstraint",
                    "ReactionConstraint", "ThroughputConstraint",
                    "Violation"),
    "dse": ("ExplorationResult", "Parameter", "configurations", "explore",
            "pareto_front", "tabulate"),
    "measurements": ("Interval", "ascii_histogram", "blocking_intervals",
                     "latency_summary", "percentile", "reaction_latencies",
                     "response_times", "running_starts", "state_intervals",
                     "stimulus_times", "switch_sequences"),
    "montecarlo": ("Campaign", "MetricSample", "format_campaign",
                   "monte_carlo"),
    "response_time": ("PeriodicTask", "breakdown_utilization",
                      "is_schedulable", "liu_layland_bound",
                      "rate_monotonic_priorities",
                      "response_time_analysis", "total_utilization"),
})

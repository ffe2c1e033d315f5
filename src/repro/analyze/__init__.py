"""Pre-simulation static analysis and runtime nondeterminism sanitizing.

The paper's whole point is catching RTOS-level design mistakes *before*
target code exists; this package catches them before the *simulation*
runs, in milliseconds:

* :func:`analyze_system` -- the **model linter**: walks the
  processor/task/shared-variable graph of a built system and reports
  duplicate priorities, utilization and response-time schedulability
  violations (Liu & Layland bound + overhead-aware RTA), deadlock
  cycles and priority-inversion hazards in the lock acquisition graph,
  broken overhead formulas, never-ready tasks, and time-partition
  windows that cannot fit their tasks (rules ``RTS...``).
* :func:`analyze_source` -- the **source linter**: an AST pass over
  experiment/model files for unseeded global randomness, wall-clock
  reads and unpicklable campaign callables (rules ``SRC...``).
* :class:`Sanitizer` -- the **runtime sanitizer** behind
  ``Simulator(sanitize=True)``: same-delta conflicting channel writes
  and ambiguous same-timestamp wake orders (rules ``SAN...``).
* :func:`analyze_flows` / :func:`task_effects` -- the **behavior-flow
  analyzer**: lowers every task behavior (script ops and generator
  ASTs alike) into one effect IR, then runs path-sensitive lock-set
  abstract interpretation and static demand/supply interval inference
  over it (rules ``RTS16x``); its findings ride along in
  :func:`analyze_system` reports.
* :class:`BlockingModel` / :func:`plan_fixes` -- the **blocking-aware
  schedulability layer**: extracts worst-case critical-section holds
  from the effect IR, charges protocol-aware blocking terms into the
  RTA, checks ceilings and Audsley-optimal priority assignments (rules
  ``RTS18x``), and synthesizes machine-applicable JSON-spec patches
  (``pyrtos-sc lint --fix``).

The fixed-priority RTA they share lives in ``response_time``.

All of them report through one :class:`Diagnostic` pipeline; the
``pyrtos-sc lint`` CLI command renders it as text or JSON.  The full
rule catalogue lives in ``docs/analysis.md``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "assign": ("check_assignment", "suggest_priorities"),
    "blocking": ("BlockingModel", "BlockingTerm", "CriticalSection",
                 "check_blocking", "critical_sections"),
    "code": ("analyze_source",),
    "diagnostics": ("RULES", "Diagnostic", "Report", "Severity",
                    "explain_rule"),
    "effects": ("TaskEffects", "task_effects"),
    "fixes": ("apply_fixes", "plan_fixes"),
    "flow": ("TaskFlow", "analyze_flows", "analyze_task", "check_flow"),
    "model": ("analyze_processors", "analyze_system"),
    "personality": ("check_personality",),
    "response_time": ("PeriodicTask", "breakdown_utilization",
                      "is_schedulable", "liu_layland_bound",
                      "rate_monotonic_priorities",
                      "response_time_analysis", "total_utilization"),
    "sanitize": ("Sanitizer",),
    "sarif": ("report_to_sarif",),
    "schedulability": ("periodic_profile",),
})

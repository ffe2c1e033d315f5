"""Campaign execution: parallel, cached, fault-tolerant batch runs.

The paper's purpose is design-space exploration -- running the same
RTOS model over many seeds and configurations.  This subsystem turns
those one-off loops into an orchestrated batch engine:

* :class:`ExperimentSpec` -- a name plus one picklable
  ``run(params) -> metrics`` function;
* :class:`Runner` -- calls it once per param dict, in-process at
  ``workers=1`` or sharded over ``workers=N`` processes with chunked
  dispatch, per-run ``timeout`` and bounded ``retries``;
* :class:`ResultCache` -- a content-hash-keyed JSONL store under
  ``.campaign-cache/`` so unchanged grid cells are never re-simulated;
* :class:`ProgressReporter` -- live progress/ETA plus a final
  throughput summary.

The high-level drivers :func:`monte_carlo` (``montecarlo.py``) and
:func:`explore` (``dse.py``) always execute through the
:class:`Runner`, so ``workers=`` / ``cache=`` never change what they
return; see ``docs/campaigns.md`` for semantics and guarantees.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cache": ("DEFAULT_CACHE_ROOT", "ResultCache", "resolve_cache",
              "run_key"),
    "dse": ("ExplorationResult", "Parameter", "configurations", "explore",
            "pareto_front", "tabulate"),
    "experiments": ("mpeg2_experiment",),
    "montecarlo": ("Campaign", "MetricSample", "format_campaign",
                   "monte_carlo"),
    "progress": ("ProgressReporter",),
    "runner": ("CampaignResult", "RunFailure", "RunResult", "Runner"),
    "spec": ("ExperimentSpec", "callable_fingerprint", "canonical_json"),
})

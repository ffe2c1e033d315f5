"""Campaign execution: parallel, cached, fault-tolerant batch runs.

The paper's purpose is design-space exploration -- running the same
RTOS model over many seeds and configurations.  This subsystem turns
those one-off loops into an orchestrated batch engine:

* :class:`ExperimentSpec` -- a picklable build/run/metrics triple with
  deterministic per-run seed derivation (:func:`derive_seed`);
* :class:`Runner` -- runs in-process at ``workers=1`` or shards runs
  over ``workers=N`` processes with chunked dispatch, per-run
  ``timeout`` and bounded ``retries``;
* :class:`ResultCache` -- a content-hash-keyed JSONL store under
  ``.campaign-cache/`` so unchanged grid cells are never re-simulated;
* :class:`ProgressReporter` -- live progress/ETA plus a final
  throughput summary.

The high-level drivers :func:`repro.analysis.monte_carlo` and
:func:`repro.analysis.explore` always execute through the
:class:`Runner`, so ``workers=`` / ``cache=`` never change what they
return; see ``docs/campaigns.md`` for semantics and guarantees.
"""

from .cache import DEFAULT_CACHE_ROOT, ResultCache, resolve_cache, run_key
from .experiments import mpeg2_experiment
from .progress import ProgressReporter
from .runner import CampaignResult, RunFailure, RunResult, Runner
from .spec import (
    ExperimentSpec,
    RunRequest,
    callable_fingerprint,
    canonical_json,
    derive_seed,
    spec_from_design,
    spec_from_experiment,
)

__all__ = [
    "CampaignResult",
    "DEFAULT_CACHE_ROOT",
    "ExperimentSpec",
    "ProgressReporter",
    "ResultCache",
    "RunFailure",
    "RunRequest",
    "RunResult",
    "Runner",
    "callable_fingerprint",
    "canonical_json",
    "derive_seed",
    "mpeg2_experiment",
    "resolve_cache",
    "run_key",
    "spec_from_design",
    "spec_from_experiment",
]

"""Simulation-as-a-service: an HTTP gateway over the whole toolchain.

The paper pitches the RTOS model as a *shared* early-design-phase tool;
this package is the delivery layer that makes it one.  ``pyrtos-sc
serve --port N`` runs a stdlib-only HTTP service accepting the same
JSON system specs as ``pyrtos-sc run``/``campaign`` and composing every
prior subsystem behind a network API:

* :class:`Gateway` -- router + lifecycle (``/v1/simulate``,
  ``/v1/campaign``, ``/v1/lint``, job polling, trace exports,
  ``/healthz``, ``/metrics``; graceful SIGTERM drain);
* :class:`JobStore` -- content-hash request dedup reusing the
  :mod:`repro.campaign` cache hashing (a re-submitted spec is a cache
  hit, not a re-run);
* :class:`AdmissionQueue` / :class:`TokenBucket` -- bounded admission
  with 429 + ``Retry-After`` backpressure and per-client rate limits;
* :class:`WorkerPool` + :func:`validate_spec` -- execution through the
  campaign Runner, gated by :mod:`repro.analyze` (bad specs are 422s,
  never simulations);
* :class:`Registry` -- counters and latency summaries in Prometheus
  text exposition.

See ``docs/serving.md`` for the API reference and deployment notes.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "app": ("Gateway",),
    "jobs": ("CAMPAIGN_SPEC", "SIMULATE_SPEC", "Job", "JobStore",
             "UnknownJob"),
    "metrics": ("Counter", "Gauge", "Registry", "Summary"),
    "queue": ("AdmissionQueue", "QueueFull", "RateLimited", "TokenBucket"),
    "workers": ("LintRejected", "WorkerPool", "validate_spec"),
})

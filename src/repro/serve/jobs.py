"""Jobs: what one gateway request becomes, and how it is deduplicated.

Every ``POST /v1/simulate`` / ``POST /v1/campaign`` turns into a
:class:`Job` keyed by the **content hash** of its request -- the same
:func:`repro.campaign.cache.run_key` hashing the campaign cache uses,
over the :class:`~repro.campaign.spec.ExperimentSpec` of the request
kind.  Two layers of dedup fall out of that one key:

* **in-memory** -- concurrent identical requests share a single
  :class:`Job` (the second client just waits on the first job's event);
* **on-disk** -- the worker executes through the campaign
  :class:`~repro.campaign.runner.Runner` with the server's
  :class:`~repro.campaign.cache.ResultCache` (bounded by
  ``max_entries``; see the cache's LRU prune policy), so a re-submitted
  spec is a cache hit that never re-simulates, even across server
  restarts.

Each kind's result payload is produced by one module-level function,
which means tests (and clients) can compute the exact expected bytes of
a response by calling :data:`SIMULATE_SPEC` ``.run(params)`` directly.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..campaign.cache import ResultCache, run_key
from ..campaign.runner import Runner
from ..campaign.spec import ExperimentSpec
from ..errors import ReproError
from ..kernel.time import format_time, parse_time
from ..mcse.builder import build_system
from ..trace.recorder import TraceRecorder

#: Completed jobs kept in memory for ``GET /v1/jobs/<id>`` (LRU beyond
#: this count is evicted; the on-disk cache still dedups their results).
DEFAULT_MAX_JOBS = 256


class UnknownJob(ReproError):
    """``GET /v1/jobs/<id>`` named a job this server does not remember."""


def _json_safe(payload):
    """Round-trip ``payload`` through JSON, repr-ing anything exotic.

    Trace record ``value`` fields may carry arbitrary Python objects;
    serving them requires the same degradation :meth:`TraceRecorder.
    save_jsonl` applies (repr), so cached and fresh results serialize
    identically.
    """
    return json.loads(json.dumps(payload, default=repr))


# ---------------------------------------------------------------------------
# The "simulate" experiment: one spec, one deterministic run, one
# JSON-native result payload.  Module-level so it fingerprints stably.
# ---------------------------------------------------------------------------
def _simulate(params: Dict) -> Dict:
    system = build_system(params["spec"])
    recorder = TraceRecorder(system.sim)
    duration = params.get("duration")
    system.run(parse_time(duration) if duration else None)
    return {
        "name": system.name,
        "end": format_time(system.now),
        "end_time": system.now,
        "tasks": recorder.tasks(),
        "record_count": len(recorder),
        "processors": [cpu.stats()
                       for cpu in system.processors.values()],
        "domains": [domain.stats()
                    for domain in getattr(system, "domains", {}).values()],
        "trace": [_json_safe(record) for record in recorder.to_dicts()],
    }


SIMULATE_SPEC = ExperimentSpec("serve-simulate", _simulate)


# ---------------------------------------------------------------------------
# The "campaign" experiment: a whole Monte-Carlo campaign as one job,
# cached at request granularity (the CLI's --json payload shape).
# ---------------------------------------------------------------------------
def _campaign(params: Dict) -> Dict:
    from ..campaign.montecarlo import monte_carlo
    from ..campaign.experiments import mpeg2_experiment

    experiment = functools.partial(
        mpeg2_experiment,
        frames=int(params.get("frames", 8)),
        engine=params.get("engine", "procedural"),
    )
    campaign = monte_carlo(
        experiment,
        runs=int(params.get("runs", 4)),
        base_seed=int(params.get("base_seed", 0)),
        strict=False,
    )
    # wall-clock and rate are volatile; drop them so identical requests
    # produce byte-identical results (as ``_verify`` does below)
    stats = {key: value for key, value in campaign.stats.items()
             if key not in ("wall_s", "runs_per_s")}
    return {
        "runs": campaign.runs,
        "stats": stats,
        "metrics": {name: sample.summary()
                    for name, sample in campaign.items()},
        "failures": [f.describe() for f in campaign.failures],
    }


CAMPAIGN_SPEC = ExperimentSpec("serve-campaign", _campaign)


# ---------------------------------------------------------------------------
# The "verify" experiment: bounded model checking of one spec.  The
# exploration is deterministic (DFS order / seeded sampling), so results
# dedup exactly like simulations do.
# ---------------------------------------------------------------------------
def _verify(params: Dict) -> Dict:
    from ..verify import verify_spec

    horizon = params.get("horizon")
    result = verify_spec(
        params["spec"],
        strategy=params.get("strategy", "dfs"),
        horizon=parse_time(horizon) if horizon else None,
        max_depth=int(params.get("depth", 64)),
        sanitize=bool(params.get("sanitize", False)),
        max_runs=int(params.get("max_runs", 10_000)),
        runs=int(params.get("runs", 100)),
        seed=int(params.get("seed", 0)),
    )
    payload = _json_safe(result.to_dict())
    # wall-clock and rate are volatile; drop them so identical requests
    # produce byte-identical (and therefore dedup-cacheable) results
    payload["stats"].pop("wall_s", None)
    payload["stats"].pop("states_per_second", None)
    return payload


VERIFY_SPEC = ExperimentSpec("serve-verify", _verify)

#: Request kind -> the ExperimentSpec executing it.
JOB_SPECS: Dict[str, ExperimentSpec] = {
    "simulate": SIMULATE_SPEC,
    "campaign": CAMPAIGN_SPEC,
    "verify": VERIFY_SPEC,
}


@dataclass
class Job:
    """One admitted request, from queue to completion."""

    id: str
    kind: str
    params: Dict
    state: str = "queued"  # queued | running | done | failed
    cached: bool = False
    result: Optional[Dict] = None
    error: Optional[Dict] = None
    wall_s: float = 0.0
    attempts: int = 1
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")

    def describe(self, *, with_result: bool = True) -> Dict:
        """The ``GET /v1/jobs/<id>`` view of this job."""
        payload = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "cached": self.cached,
            "wall_s": round(self.wall_s, 6),
            "attempts": self.attempts,
        }
        if self.error is not None:
            payload["error"] = self.error
        if with_result and self.result is not None:
            payload["result"] = self.result
        return payload


class JobStore:
    """Content-addressed job registry with two-layer dedup.

    ``cache`` is the server's dedup store -- a
    :class:`~repro.campaign.cache.ResultCache`, typically constructed
    with ``max_entries`` so it cannot grow without bound.  ``None``
    disables disk dedup (in-memory dedup still applies).
    """

    def __init__(self, cache: Optional[ResultCache] = None, *,
                 max_jobs: int = DEFAULT_MAX_JOBS,
                 retries: int = 0) -> None:
        self.cache = cache
        self.max_jobs = max_jobs
        self._runner = Runner(workers=1, cache=cache, retries=retries)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._fingerprints = {
            kind: spec.fingerprint() for kind, spec in JOB_SPECS.items()
        }

    # -- lookup --------------------------------------------------------
    def key_for(self, kind: str, params: Dict) -> str:
        """The content hash identifying one request of one kind."""
        if kind not in JOB_SPECS:
            raise ReproError(f"unknown job kind {kind!r}")
        return run_key(self._fingerprints[kind], params)

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJob(f"no such job {job_id!r}")
            self._jobs.move_to_end(job_id)
            return job

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def pending(self) -> int:
        with self._lock:
            return sum(1 for job in self._jobs.values()
                       if not job.finished)

    # -- submission ----------------------------------------------------
    def submit(self, kind: str, params: Dict) -> Tuple[Job, bool]:
        """Register (or dedup onto) the job for ``params``.

        Returns ``(job, created)``: ``created`` is False when an
        identical request is already known in memory -- the caller
        must NOT enqueue it again.
        """
        key = self.key_for(kind, params)
        with self._lock:
            job = self._jobs.get(key)
            if job is not None:
                self._jobs.move_to_end(key)
                return job, False
            job = Job(id=key, kind=kind, params=dict(params))
            self._jobs[key] = job
            self._evict_locked()
            return job, True

    def forget(self, job: Job) -> None:
        """Drop a job that was never enqueued (admission rolled back)."""
        with self._lock:
            existing = self._jobs.get(job.id)
            if existing is job and not job.finished:
                del self._jobs[job.id]

    def _evict_locked(self) -> None:
        finished = [key for key, job in self._jobs.items() if job.finished]
        excess = len(self._jobs) - self.max_jobs
        for key in finished[:max(0, excess)]:
            del self._jobs[key]

    # -- execution (worker side) ---------------------------------------
    def execute(self, job: Job) -> Job:
        """Run ``job`` through the campaign Runner; never raises.

        A disk-cache hit surfaces as ``job.cached = True`` with zero
        fresh simulation; failures become a structured ``job.error``
        carrying the worker-side traceback, mirroring
        :class:`~repro.campaign.runner.RunFailure`.
        """
        job.state = "running"
        spec = JOB_SPECS[job.kind]
        try:
            outcome = self._runner.execute(spec, [job.params])
        except Exception as exc:  # defensive: runner itself blew up
            job.state = "failed"
            job.error = {"type": type(exc).__name__, "message": str(exc)}
            job.done.set()
            return job
        if outcome.results:
            run = outcome.results[0]
            job.result = run.metrics
            job.cached = run.cached
            job.wall_s = run.wall_s
            job.attempts = run.attempts
            job.state = "done"
        else:
            failure = outcome.failures[0]
            job.error = {
                "type": failure.error_type,
                "message": failure.message,
                "traceback": failure.traceback,
                "timed_out": failure.timed_out,
            }
            job.attempts = failure.attempts
            job.state = "failed"
        job.done.set()
        with self._lock:
            self._evict_locked()
        return job

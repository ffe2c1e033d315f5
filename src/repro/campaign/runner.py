"""The campaign runner: parallel, cached, fault-tolerant execution.

:class:`Runner` takes an :class:`~repro.campaign.spec.ExperimentSpec`
plus a list of plain param dicts (a dict's position is its run index)
and calls ``spec.run(params)`` for each of them

* **in parallel** -- ``workers=N`` shards fresh runs over a process
  pool with chunked dispatch (``imap_unordered``), because one Python
  process cannot use more than one core;
* **cached** -- with ``cache=`` enabled, runs whose content key is
  already on disk are served without simulating, and fresh results are
  appended for the next invocation;
* **fault-tolerant** -- a run that raises (or exceeds ``timeout``
  seconds of wall clock) is retried up to ``retries`` times and then
  recorded as a structured :class:`RunFailure` instead of aborting the
  campaign.

Determinism guarantee: results are re-ordered by run index before
aggregation, so the *content* of a :class:`CampaignResult` depends only
on the spec and the params -- never on worker count, chunking or
completion order.
"""

from __future__ import annotations

import multiprocessing
import pickle
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import CampaignError, RunTimeout
from .cache import resolve_cache
from .progress import resolve_progress
from .spec import ExperimentSpec


@dataclass
class RunResult:
    """One successful run: its parameters, metrics and provenance."""

    index: int
    params: Dict
    metrics: Dict
    wall_s: float = 0.0
    attempts: int = 1
    cached: bool = False


@dataclass
class RunFailure:
    """One run that failed after every retry.

    ``error_type`` is the exception class name (``"RunTimeout"`` for
    deadline kills), ``traceback`` the formatted worker-side stack.
    """

    index: int
    params: Dict
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    timed_out: bool = False

    def describe(self) -> str:
        return (f"run {self.index} {self.params!r}: {self.error_type}: "
                f"{self.message} (after {self.attempts} attempt(s))")


@dataclass
class CampaignResult:
    """Everything a campaign produced, in deterministic index order."""

    spec_name: str
    results: List[RunResult] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    wall_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def runs(self) -> int:
        return len(self.results) + len(self.failures)

    def raise_on_failure(self) -> None:
        """Raise :class:`CampaignError` summarising any failed runs."""
        if self.failures:
            preview = "; ".join(f.describe() for f in self.failures[:3])
            more = len(self.failures) - 3
            if more > 0:
                preview += f"; ... and {more} more"
            raise CampaignError(
                f"campaign {self.spec_name!r}: "
                f"{len(self.failures)}/{self.runs} runs failed ({preview})"
            )

    def summary(self) -> dict:
        """A JSON-ready accounting of the campaign execution."""
        return {
            "spec": self.spec_name,
            "runs": self.runs,
            "ok": len(self.results),
            "failed": len(self.failures),
            "cached": sum(1 for r in self.results if r.cached),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "workers": self.workers,
            "wall_s": round(self.wall_s, 6),
            "runs_per_s": round(self.runs / self.wall_s, 3)
            if self.wall_s > 0 else None,
        }


# ---------------------------------------------------------------------------
# Worker-side execution (must stay module-level: it crosses the pickle
# boundary into pool processes)
# ---------------------------------------------------------------------------
@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`RunTimeout` after ``seconds`` of wall clock.

    Uses ``SIGALRM``/``setitimer``, which only works in a main thread on
    a Unix platform -- exactly where pool workers (and in-process runs
    at ``workers=1``) execute.  Elsewhere the deadline is silently not
    enforced.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {seconds}s wall-clock timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _attempt_run(spec: ExperimentSpec, index: int, params: Dict,
                 timeout: Optional[float], retries: int) -> tuple:
    """Execute one run with bounded retry; never raises."""
    outcome = None
    for attempt in range(1, retries + 2):
        start = time.perf_counter()
        try:
            with _deadline(timeout):
                metrics = spec.run(params)
            wall = time.perf_counter() - start
            return ("ok", index, metrics, wall, attempt)
        except RunTimeout as exc:
            outcome = ("fail", index, "RunTimeout", str(exc),
                       "", attempt, True)
        except Exception as exc:  # structured record, not an abort
            outcome = ("fail", index, type(exc).__name__,
                       str(exc), traceback.format_exc(), attempt, False)
    return outcome


def _pool_entry(payload) -> tuple:
    return _attempt_run(*payload)


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
class Runner:
    """Executes campaigns; see the module docstring for semantics.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (default) runs in-process -- no pickling
        requirement, useful for closures and debugging.
    cache:
        ``True`` / path / :class:`ResultCache` to enable the on-disk
        result cache; ``None`` disables it.
    timeout:
        Per-run wall-clock limit in seconds (per attempt).
    retries:
        Extra attempts after a failed run (0 = fail fast per run).
    progress:
        ``True`` or a :class:`ProgressReporter` for live status lines.
    """

    def __init__(self, *, workers: int = 1, cache=None,
                 timeout: Optional[float] = None, retries: int = 0,
                 progress=False) -> None:
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise CampaignError(f"retries must be >= 0, got {retries}")
        self.workers = workers
        self.cache = resolve_cache(cache)
        self.timeout = timeout
        self.retries = retries
        self.progress = progress

    # -- public API ----------------------------------------------------
    def execute(self, spec: ExperimentSpec,
                params_list: Sequence[Dict]) -> CampaignResult:
        """Run ``spec.run`` on every param dict; results in index order.

        A dict's position in ``params_list`` is its run index.
        """
        started = time.perf_counter()
        reporter = resolve_progress(self.progress, len(params_list),
                                    label=spec.name)
        if reporter is not None:
            reporter.start()

        outcome = CampaignResult(spec_name=spec.name, workers=self.workers)
        fingerprint = spec.fingerprint() if self.cache is not None else None
        hits0 = self.cache.hits if self.cache is not None else 0
        miss0 = self.cache.misses if self.cache is not None else 0

        pending: Dict[int, Dict] = {}
        for index, params in enumerate(params_list):
            record = None
            if self.cache is not None:
                record = self.cache.lookup(spec, params,
                                           fingerprint=fingerprint)
            if record is not None:
                outcome.results.append(RunResult(
                    index=index, params=dict(params),
                    metrics=record["metrics"],
                    wall_s=record.get("wall_s", 0.0), cached=True,
                ))
                if reporter is not None:
                    reporter.update(cached=1)
            else:
                pending[index] = params

        for raw in self._execute_pending(spec, pending):
            self._absorb(spec, fingerprint, pending, raw, outcome,
                         reporter)

        outcome.results.sort(key=lambda r: r.index)
        outcome.failures.sort(key=lambda f: f.index)
        outcome.wall_s = time.perf_counter() - started
        if self.cache is not None:
            outcome.cache_hits = self.cache.hits - hits0
            outcome.cache_misses = self.cache.misses - miss0
        if reporter is not None:
            reporter.finish(wall_s=outcome.wall_s)
        return outcome

    # -- internals -----------------------------------------------------
    def _execute_pending(self, spec: ExperimentSpec,
                         pending: Dict[int, Dict]):
        if not pending:
            return
        payloads = [(spec, index, params, self.timeout, self.retries)
                    for index, params in pending.items()]
        if self.workers == 1:
            for payload in payloads:
                yield _attempt_run(*payload)
            return

        self._check_picklable(payloads[0])
        # ~4 chunks per worker: scheduling overhead vs tail latency
        chunk = max(1, min(32, len(pending) // (self.workers * 4) or 1))
        workers = min(self.workers, len(pending))
        with multiprocessing.Pool(processes=workers) as pool:
            for raw in pool.imap_unordered(_pool_entry, payloads,
                                           chunksize=chunk):
                yield raw

    def _absorb(self, spec, fingerprint, pending, raw, outcome,
                reporter) -> None:
        if raw[0] == "ok":
            _, index, metrics, wall, attempts = raw
            params = pending[index]
            outcome.results.append(RunResult(
                index=index, params=dict(params),
                metrics=metrics, wall_s=wall, attempts=attempts,
            ))
            if self.cache is not None:
                self.cache.store(spec, params, metrics,
                                 wall_s=wall, fingerprint=fingerprint)
            if reporter is not None:
                reporter.update(ok=1)
        else:
            _, index, error_type, message, tb, attempts, timed_out = raw
            outcome.failures.append(RunFailure(
                index=index, params=dict(pending[index]),
                error_type=error_type, message=message, traceback=tb,
                attempts=attempts, timed_out=timed_out,
            ))
            if reporter is not None:
                reporter.update(failed=1)

    def _check_picklable(self, payload: tuple) -> None:
        try:
            pickle.dumps(payload)
        except Exception as exc:
            raise CampaignError(
                f"experiment {payload[0].name!r} cannot be shipped to "
                f"worker processes: {exc}. Campaign callables must be "
                "module-level functions (or functools.partial over "
                "them); use workers=1 for closures/lambdas."
            ) from None

"""Worker pool and the admission-time lint gate.

**Validation before admission**: every spec posted to the gateway runs
through :mod:`repro.analyze` *before* it can occupy a queue slot.  A
spec that fails to build, or whose lint report fails (strict mode:
warnings count), is rejected with the diagnostic report as the response
body -- the HTTP layer maps :class:`LintRejected` to ``422
Unprocessable Entity`` -- so a broken model never costs a simulation.

**Execution after admission**: :class:`WorkerPool` runs N daemon
threads that pull jobs off the :class:`~repro.serve.queue.
AdmissionQueue` and execute them through :meth:`JobStore.execute`
(i.e. the campaign Runner with its retry/timeout/RunFailure machinery
and the dedup cache).  ``drain()`` implements the graceful half of
SIGTERM: the queue stops admitting, workers finish the backlog and
every in-flight job, then exit.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from ..errors import BuildError, ReproError
from .jobs import Job, JobStore
from .queue import AdmissionQueue


class LintRejected(ReproError):
    """A posted spec failed pre-admission analysis; HTTP 422.

    ``report`` is the JSON-ready diagnostic payload (the same shape
    ``pyrtos-sc lint --json`` emits per target).
    """

    def __init__(self, message: str, report: Dict) -> None:
        super().__init__(message)
        self.report = report


def validate_spec(spec: Dict, *, strict: bool = True,
                  suppress=None) -> Dict:
    """Lint a posted system spec; returns the report dict when it passes.

    Raises :class:`LintRejected` when the spec cannot build
    (``BuildError`` becomes a synthetic ``RTS000`` diagnostic) or when
    the :func:`repro.analyze.analyze_system` report fails -- with
    ``strict=True`` (the server default) warnings are rejections too.
    """
    from ..analyze.model import analyze_system
    from ..mcse.builder import build_system

    try:
        system = build_system(spec)
    except (BuildError, TypeError, KeyError, ValueError) as exc:
        report = {
            "diagnostics": [{
                "rule": "RTS000",
                "severity": "error",
                "location": spec.get("name", "<spec>")
                if isinstance(spec, dict) else "<spec>",
                "message": f"spec does not build: {exc}",
                "hint": None,
                "line": None,
            }],
            "suppressed": [],
            "summary": {"errors": 1, "warnings": 0, "infos": 0,
                        "suppressed": 0},
        }
        raise LintRejected(f"spec does not build: {exc}", report) from None
    report = analyze_system(system, suppress=suppress)
    if not report.ok(strict=strict):
        raise LintRejected(
            "spec rejected by pre-admission lint "
            f"({len(report.errors)} error(s), "
            f"{len(report.warnings)} warning(s))",
            report.to_dict(),
        )
    return report.to_dict()


class WorkerPool:
    """N daemon threads executing jobs from the admission queue."""

    def __init__(self, store: JobStore, queue: AdmissionQueue, *,
                 workers: int = 2,
                 on_job_done: Optional[Callable[[Job], None]] = None,
                 poll_s: float = 0.2) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.queue = queue
        self.on_job_done = on_job_done
        self.poll_s = poll_s
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self.workers = workers

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        for n in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name=f"pyrtos-worker-{n}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def _loop(self) -> None:
        while True:
            job = self.queue.get(self.poll_s)
            if job is None:
                if self._stop.is_set() or self.queue.closed:
                    return
                continue
            with self._inflight_lock:
                self._inflight += 1
            try:
                self.store.execute(job)
                if self.on_job_done is not None:
                    self.on_job_done(job)
            finally:
                with self._inflight_lock:
                    self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Finish the backlog and all in-flight jobs, then stop workers.

        Closes the queue (no new admissions; blocked getters wake),
        then joins every worker thread.  Returns True when all workers
        exited within ``timeout`` seconds overall.
        """
        import time as _time

        self.queue.close()
        self._stop.set()
        deadline = None if timeout is None else _time.monotonic() + timeout
        clean = True
        for thread in self._threads:
            remaining = (None if deadline is None
                         else max(0.0, deadline - _time.monotonic()))
            thread.join(remaining)
            if thread.is_alive():
                clean = False
        return clean

    def stop(self) -> bool:
        """Alias for :meth:`drain` with a short join (tests/teardown)."""
        return self.drain(timeout=5.0)

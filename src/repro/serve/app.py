"""The HTTP gateway: routing, admission control, lifecycle.

``pyrtos-sc serve --port N`` exposes the whole toolchain over plain
HTTP (stdlib ``http.server`` only -- no frameworks):

====================================  =====================================
``POST /v1/simulate``                 run a JSON system spec; dedup-cached
``POST /v1/campaign``                 run an MPEG-2 Monte-Carlo campaign
``POST /v1/lint``                     static analysis only (no simulation)
``POST /v1/verify``                   bounded model checking of a spec
``POST /v1/corpus``                   generate a scenario spec (synchronous)
``GET /v1/jobs/<id>``                 job status + result
``GET /v1/jobs/<id>/trace.vcd``       trace exports reusing
``GET /v1/jobs/<id>/trace.svg``       :mod:`repro.trace` (VCD / SVG /
``GET /v1/jobs/<id>/trace.html``      full HTML report)
``GET /healthz``                      liveness (503 while draining)
``GET /metrics``                      Prometheus text exposition
====================================  =====================================

Admission pipeline for job-creating POSTs: rate limit (429) -> body
parse (400/413) -> :func:`~repro.serve.workers.validate_spec` lint gate
(422 with the diagnostic report as body) -> in-memory dedup ->
bounded queue (429 + ``Retry-After`` on overflow) -> worker pool ->
campaign Runner with the bounded on-disk dedup cache.

SIGTERM/SIGINT triggers a graceful drain: admission stops (503), the
backlog and in-flight jobs finish, a final metrics snapshot is flushed
to stderr, and the listener shuts down.
"""

from __future__ import annotations

import io
import json
import re
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from ..campaign.cache import ResultCache
from ..errors import ReproError
from ..jsonout import emit_json
from .jobs import Job, JobStore, UnknownJob
from .metrics import Registry, build_gateway_metrics
from .queue import AdmissionQueue, QueueFull, RateLimited, TokenBucket
from .workers import LintRejected, WorkerPool, validate_spec

#: Default bound on the server's on-disk dedup cache (entries).
DEFAULT_CACHE_MAX_ENTRIES = 1024

#: Largest accepted request body (8 MiB of JSON spec is plenty).
MAX_BODY_BYTES = 8 * 1024 * 1024

_JOB_ROUTE = re.compile(
    r"^/v1/jobs/(?P<id>[0-9a-f]{64})"
    r"(?:/trace\.(?P<export>vcd|svg|html))?$"
)

#: Campaign request keys the gateway accepts (anything else is a 400).
_CAMPAIGN_KEYS = {"runs", "frames", "base_seed", "engine", "async"}
_CAMPAIGN_MAX_RUNS = 1024

#: Verify envelope options the gateway accepts (anything else is a 400).
_VERIFY_KEYS = {"strategy", "horizon", "depth", "max_runs", "runs", "seed",
                "sanitize", "async"}
_VERIFY_MAX_RUNS = 100_000


class BadRequest(ReproError):
    """Client error mapped to HTTP 400."""


def _encode_json(payload) -> bytes:
    """Canonical response encoding: :func:`repro.jsonout.emit_json`."""
    buffer = io.StringIO()
    emit_json(payload, buffer)
    return buffer.getvalue().encode("utf-8")


class Gateway:
    """One serving instance: metrics, store, queue, limiter, pool, HTTP."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, *,
                 workers: int = 2, queue_size: int = 16,
                 rate: Optional[float] = None, burst: int = 10,
                 cache=None, cache_max_entries: int = DEFAULT_CACHE_MAX_ENTRIES,
                 strict_lint: bool = True,
                 request_timeout: float = 300.0,
                 job_retries: int = 0,
                 drain_timeout: float = 30.0,
                 verbose: bool = False) -> None:
        self.host = host
        self.port = port
        self.strict_lint = strict_lint
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.verbose = verbose
        self.draining = False
        self.started_at: Optional[float] = None

        self.registry = Registry()
        self.metrics = build_gateway_metrics(self.registry)
        self.cache = self._resolve_cache(cache, cache_max_entries)
        self.store = JobStore(self.cache, retries=job_retries)
        self.queue = AdmissionQueue(queue_size)
        self.limiter = TokenBucket(rate, burst)
        self.pool = WorkerPool(self.store, self.queue, workers=workers,
                               on_job_done=self._on_job_done)
        self.registry.gauge(
            "pyrtos_queue_depth",
            "Jobs admitted but not yet picked up by a worker.",
            callback=lambda: self.queue.depth,
        )
        self.registry.gauge(
            "pyrtos_jobs_inflight",
            "Jobs currently executing on worker threads.",
            callback=lambda: self.pool.inflight,
        )
        self.registry.gauge(
            "pyrtos_jobs_known",
            "Jobs the in-memory store remembers (bounded LRU).",
            callback=lambda: len(self.store),
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._drain_lock = threading.Lock()
        self._drained = False
        self._drain_clean = True

    @staticmethod
    def _resolve_cache(cache, max_entries: int) -> Optional[ResultCache]:
        if cache is None or cache is False:
            return None
        if isinstance(cache, ResultCache):
            return cache
        return ResultCache(str(cache), max_entries=max_entries)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bind the listener and start the worker pool (non-blocking)."""
        gateway = self

        class Handler(_GatewayHandler):
            pass

        Handler.gateway = gateway
        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self.pool.start()
        self.started_at = time.time()
        self._log(f"listening on http://{self.host}:{self.port}")

    def serve_forever(self) -> None:
        assert self._httpd is not None, "call start() first"
        self._httpd.serve_forever(poll_interval=0.2)

    def run(self, *, install_signals: bool = True) -> int:
        """start() + signal handlers + serve_forever(); returns exit code."""
        self.start()
        if install_signals:
            self.install_signal_handlers()
        try:
            self.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        clean = self.drain()
        return 0 if clean else 1

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT -> graceful drain (main thread only)."""
        def _on_signal(signum, frame):
            self._log(f"signal {signum}: draining")
            threading.Thread(target=self._drain_and_shutdown,
                             daemon=True).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)

    def _drain_and_shutdown(self) -> None:
        self.drain()
        if self._httpd is not None:
            self._httpd.shutdown()

    def drain(self) -> bool:
        """Stop admitting, finish in-flight work, flush metrics.

        Idempotent; returns True when every worker exited within the
        drain timeout.
        """
        with self._drain_lock:
            if self._drained:
                return self._drain_clean
            self.draining = True
            clean = self.pool.drain(timeout=self.drain_timeout)
            self._flush_metrics()
            self._drained = True
            self._drain_clean = clean
            self._log("drain complete" if clean
                      else "drain timed out with workers still busy")
            return clean

    def stop(self) -> bool:
        """Drain and close the listener (tests / embedding)."""
        clean = self.drain()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        return clean

    def _flush_metrics(self) -> None:
        sys.stderr.write(self.registry.render())
        sys.stderr.flush()

    def _log(self, message: str) -> None:
        if self.verbose:
            sys.stderr.write(f"pyrtos-serve: {message}\n")
            sys.stderr.flush()

    # -- request handling (called from handler threads) ----------------
    def handle_request(self, method: str, path: str, body: Optional[bytes],
                       client: str) -> Tuple[int, Dict[str, str], bytes]:
        """Route one request; returns (status, headers, body_bytes)."""
        endpoint, response = self._route(method, path, body, client)
        status, headers, payload = response
        self.metrics["requests"].inc(endpoint=endpoint, status=str(status))
        return status, headers, payload

    def _route(self, method, path, body, client):
        started = time.perf_counter()
        match = _JOB_ROUTE.match(path)
        if match:
            endpoint = ("/v1/jobs/{id}" if not match.group("export")
                        else f"/v1/jobs/{{id}}/trace.{match.group('export')}")
        else:
            endpoint = path
        try:
            if method == "GET" and path == "/healthz":
                response = self._get_healthz()
            elif method == "GET" and path == "/metrics":
                response = self._get_metrics()
            elif method == "GET" and match:
                response = self._get_job(match.group("id"),
                                         match.group("export"))
            elif method == "POST" and path in ("/v1/simulate", "/v1/campaign",
                                               "/v1/lint", "/v1/verify",
                                               "/v1/corpus"):
                response = self._post(path, body, client)
            else:
                response = self._error(404, "no such endpoint", path=path)
        except RateLimited as exc:
            self.metrics["rejections"].inc(reason="rate_limit")
            response = self._error(429, str(exc),
                                   retry_after=exc.retry_after)
        except QueueFull as exc:
            self.metrics["rejections"].inc(reason="queue_full")
            response = self._error(429, str(exc),
                                   retry_after=exc.retry_after)
        except LintRejected as exc:
            self.metrics["rejections"].inc(reason="lint")
            response = self._json(422, {"error": str(exc),
                                        "report": exc.report})
        except BadRequest as exc:
            self.metrics["rejections"].inc(reason="invalid")
            response = self._error(400, str(exc))
        except UnknownJob as exc:
            response = self._error(404, str(exc))
        except Exception as exc:  # never leak a traceback as a 500 page
            response = self._error(500, f"{type(exc).__name__}: {exc}")
        self.metrics["latency"].observe(time.perf_counter() - started,
                                        endpoint=endpoint)
        return endpoint, response

    # -- GET endpoints -------------------------------------------------
    def _get_healthz(self):
        status = 503 if self.draining else 200
        return self._json(status, {
            "status": "draining" if self.draining else "ok",
            "queue_depth": self.queue.depth,
            "inflight": self.pool.inflight,
            "jobs": len(self.store),
        })

    def _get_metrics(self):
        text = self.registry.render().encode("utf-8")
        return (200,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
                text)

    def _get_job(self, job_id: str, export: Optional[str]):
        job = self.store.get(job_id)
        if export is None:
            return self._json(200, job.describe())
        return self._export_trace(job, export)

    def _export_trace(self, job: Job, export: str):
        if job.kind != "simulate":
            raise BadRequest(
                f"job {job.id} is a {job.kind} job; only simulate jobs "
                "have traces"
            )
        if job.state != "done":
            raise BadRequest(f"job {job.id} is {job.state}, not done")
        from ..trace.recorder import TraceRecorder

        if export == "vcd":
            from ..trace.vcd import write_vcd

            recorder = TraceRecorder.from_dicts(job.result["trace"])
            buffer = io.StringIO()
            write_vcd(recorder, buffer)
            return (200, {"Content-Type": "text/plain; charset=utf-8"},
                    buffer.getvalue().encode("utf-8"))
        if export == "svg":
            from ..trace.svg import render_svg
            from ..trace.timeline import TimelineChart

            recorder = TraceRecorder.from_dicts(job.result["trace"])
            chart = TimelineChart.from_recorder(recorder)
            svg = render_svg(chart)
            return (200, {"Content-Type": "image/svg+xml"},
                    svg.encode("utf-8"))
        # HTML needs live model objects for the statistics tables, so
        # re-simulate deterministically from the stored spec.
        from ..kernel.time import parse_time
        from ..mcse.builder import build_system
        from ..trace.html import render_report

        system = build_system(job.params["spec"])
        recorder = TraceRecorder(system.sim)
        duration = job.params.get("duration")
        system.run(parse_time(duration) if duration else None)
        html = render_report(system, recorder)
        return (200, {"Content-Type": "text/html; charset=utf-8"},
                html.encode("utf-8"))

    # -- POST endpoints ------------------------------------------------
    def _post(self, path: str, body: Optional[bytes], client: str):
        if self.draining:
            self.metrics["rejections"].inc(reason="draining")
            return self._error(503, "server is draining",
                               retry_after=self.drain_timeout)
        self.limiter.check(client)
        payload = self._parse_body(body)
        if path == "/v1/lint":
            return self._post_lint(payload)
        if path == "/v1/simulate":
            return self._post_simulate(payload)
        if path == "/v1/verify":
            return self._post_verify(payload)
        if path == "/v1/corpus":
            return self._post_corpus(payload)
        return self._post_campaign(payload)

    @staticmethod
    def _parse_body(body: Optional[bytes]) -> Dict:
        if not body:
            raise BadRequest("request body must be a JSON object")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        return payload

    @staticmethod
    def _unwrap_spec(payload: Dict) -> Tuple[Dict, Dict]:
        """Split an envelope {spec, ...options} from a bare spec body."""
        if "spec" in payload and isinstance(payload["spec"], dict):
            options = {k: v for k, v in payload.items() if k != "spec"}
            return payload["spec"], options
        return payload, {}

    def _post_lint(self, payload: Dict):
        """Static analysis; ``"fix": true`` plans spec patches too.

        A rejected spec (422) still carries its planned fixes -- the
        specs that fail the lint are exactly the ones with something to
        fix, so the client can re-POST the patched spec.
        """
        spec, options = self._unwrap_spec(payload)
        strict = bool(options.get("strict", self.strict_lint))
        suppress = options.get("suppress") or None
        want_fix = bool(options.get("fix"))
        try:
            report = validate_spec(spec, strict=strict, suppress=suppress)
        except LintRejected as exc:
            if not want_fix:
                raise
            self.metrics["rejections"].inc(reason="lint")
            return self._json(422, {
                "error": str(exc),
                "report": exc.report,
                "fixes": self._plan_fixes(spec, suppress),
            })
        body = {"ok": True, "report": report}
        if want_fix:
            body["fixes"] = self._plan_fixes(spec, suppress)
        return self._json(200, body)

    @staticmethod
    def _plan_fixes(spec: Dict, suppress) -> List[Dict]:
        """Planned patches, or ``[]`` when the spec cannot even build."""
        from ..analyze.fixes import plan_fixes

        try:
            return plan_fixes(spec, suppress=suppress or ())
        except (ReproError, TypeError, KeyError, ValueError):
            return []

    def _post_simulate(self, payload: Dict):
        spec, options = self._unwrap_spec(payload)
        validate_spec(spec, strict=self.strict_lint,
                      suppress=options.get("suppress") or None)
        params: Dict = {"spec": spec}
        duration = options.get("duration")
        if duration is not None:
            if not isinstance(duration, str):
                raise BadRequest('"duration" must be a time string '
                                 'like "10ms"')
            params["duration"] = duration
        return self._admit("simulate", params,
                           wait=not options.get("async", False))

    def _post_verify(self, payload: Dict):
        """Admit a bounded model-checking job.

        Unlike ``/v1/simulate`` this deliberately skips the strict lint
        gate: hazardous specs are the whole point of verification.  The
        spec still has to *build* -- a spec that cannot elaborate gets a
        422 with the builder's message instead of burning a worker.
        """
        spec, options = self._unwrap_spec(payload)
        unknown = set(options) - _VERIFY_KEYS
        if unknown:
            raise BadRequest(
                f"unknown verify key(s) {sorted(unknown)}; "
                f"accepted: {sorted(_VERIFY_KEYS)}"
            )
        from ..errors import BuildError
        from ..mcse.builder import build_system

        try:
            build_system(spec)
        except BuildError as exc:
            self.metrics["rejections"].inc(reason="build")
            return self._json(422, {"error": f"spec does not build: {exc}"})
        params: Dict = {"spec": spec}
        strategy = options.get("strategy", "dfs")
        if strategy not in ("dfs", "random"):
            raise BadRequest('"strategy" must be "dfs" or "random"')
        params["strategy"] = strategy
        horizon = options.get("horizon")
        if horizon is not None:
            if not isinstance(horizon, str):
                raise BadRequest('"horizon" must be a time string '
                                 'like "2ms"')
            params["horizon"] = horizon
        for key, default in (("depth", 64), ("max_runs", 10_000),
                             ("runs", 100), ("seed", 0)):
            value = options.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadRequest(f'"{key}" must be an integer')
            params[key] = value
        for key in ("depth", "max_runs", "runs"):
            if not 1 <= params[key] <= _VERIFY_MAX_RUNS:
                raise BadRequest(
                    f'"{key}" must be 1..{_VERIFY_MAX_RUNS}, '
                    f'got {params[key]}'
                )
        params["sanitize"] = bool(options.get("sanitize", False))
        return self._admit("verify", params,
                           wait=not options.get("async", False))

    def _post_corpus(self, payload: Dict):
        """Generate a corpus scenario spec, synchronously.

        Generation is pure computation in the milliseconds range, so the
        response carries the spec directly instead of going through the
        job queue.  The returned spec can be fed straight back into
        ``/v1/simulate``, ``/v1/lint`` or ``/v1/verify``.
        """
        unknown = set(payload) - {"generator", "seed", "params"}
        if unknown:
            raise BadRequest(
                f"unknown corpus key(s) {sorted(unknown)}; "
                "accepted: ['generator', 'params', 'seed']"
            )
        from ..corpus import GENERATORS, generate, spec_digest
        from ..errors import CorpusError

        generator = payload.get("generator")
        if not isinstance(generator, str):
            raise BadRequest(
                f'"generator" must be one of {sorted(GENERATORS)}'
            )
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise BadRequest('"seed" must be an integer')
        params = payload.get("params")
        if params is not None and not isinstance(params, dict):
            raise BadRequest('"params" must be an object')
        try:
            spec = generate(generator, seed, params)
        except CorpusError as exc:
            raise BadRequest(str(exc)) from None
        return self._json(200, {
            "generator": generator,
            "seed": seed,
            "params": params or {},
            "spec": spec,
            "spec_sha256": spec_digest(spec),
        })

    def _post_campaign(self, payload: Dict):
        unknown = set(payload) - _CAMPAIGN_KEYS
        if unknown:
            raise BadRequest(
                f"unknown campaign key(s) {sorted(unknown)}; "
                f"accepted: {sorted(_CAMPAIGN_KEYS)}"
            )
        params: Dict = {}
        for key, default in (("runs", 4), ("frames", 2), ("base_seed", 0)):
            value = payload.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadRequest(f'"{key}" must be an integer')
            params[key] = value
        if not 1 <= params["runs"] <= _CAMPAIGN_MAX_RUNS:
            raise BadRequest(
                f'"runs" must be 1..{_CAMPAIGN_MAX_RUNS}, '
                f'got {params["runs"]}'
            )
        engine = payload.get("engine", "procedural")
        if engine not in ("procedural", "threaded"):
            raise BadRequest('"engine" must be "procedural" or "threaded"')
        params["engine"] = engine
        return self._admit("campaign", params,
                           wait=not payload.get("async", False))

    def _admit(self, kind: str, params: Dict, *, wait: bool):
        """Dedup, enqueue, and (optionally) wait for one job."""
        job, created = self.store.submit(kind, params)
        if created:
            try:
                self.queue.put(job)
            except QueueFull:
                self.store.forget(job)
                raise
            self.metrics["admissions"].inc(kind=kind)
        elif job.finished:
            # Served from memory without touching the queue: a dedup hit.
            self.metrics["cache_hits"].inc()
        if not wait:
            return self._json(202, {
                "job": job.describe(with_result=False),
                "href": f"/v1/jobs/{job.id}",
            })
        if not job.done.wait(self.request_timeout):
            return self._json(202, {
                "job": job.describe(with_result=False),
                "href": f"/v1/jobs/{job.id}",
                "note": f"still running after {self.request_timeout}s; "
                        "poll the href",
            })
        return self._job_response(job)

    def _job_response(self, job: Job):
        """The deterministic response body for a finished job.

        Deliberately excludes volatile accounting (``cached``,
        ``wall_s``) so identical requests produce byte-identical
        bodies; that accounting lives on ``GET /v1/jobs/<id>`` and in
        ``/metrics``.
        """
        if job.state == "failed":
            return self._json(500, {
                "id": job.id, "kind": job.kind, "state": "failed",
                "error": job.error,
            })
        return self._json(200, {
            "id": job.id, "kind": job.kind, "state": "done",
            "result": job.result,
        })

    # -- bookkeeping ---------------------------------------------------
    def _on_job_done(self, job: Job) -> None:
        outcome = "done" if job.state == "done" else "failed"
        self.metrics["jobs_completed"].inc(kind=job.kind, outcome=outcome)
        self.metrics["job_latency"].observe(job.wall_s, kind=job.kind)
        if job.cached:
            self.metrics["cache_hits"].inc()
        elif job.state == "done":
            self.metrics["cache_misses"].inc()

    # -- response helpers ----------------------------------------------
    @staticmethod
    def _json(status: int, payload: Dict,
              extra_headers: Optional[Dict[str, str]] = None):
        headers = {"Content-Type": "application/json; charset=utf-8"}
        if extra_headers:
            headers.update(extra_headers)
        return status, headers, _encode_json(payload)

    def _error(self, status: int, message: str, *,
               retry_after: Optional[float] = None, **extra):
        payload = {"error": message}
        payload.update(extra)
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(round(retry_after))))
        return self._json(status, payload, headers)


class _GatewayHandler(BaseHTTPRequestHandler):
    """Thin adapter from http.server onto :meth:`Gateway.handle_request`."""

    gateway: Gateway  # bound per-instance by Gateway.start()
    protocol_version = "HTTP/1.1"
    server_version = "pyrtos-sc-serve"

    def _client_id(self) -> str:
        return (self.headers.get("X-Client-Id")
                or (self.client_address[0] if self.client_address else "?"))

    def _read_body(self) -> Optional[bytes]:
        length = self.headers.get("Content-Length")
        if length is None:
            return None
        length = int(length)
        if length > MAX_BODY_BYTES:
            self._send(413, {"Content-Type": "application/json",
                             "Connection": "close"},
                       _encode_json({"error": "request body too large"}))
            return b""  # sentinel: response already sent
        return self.rfile.read(length)

    def _dispatch(self, method: str) -> None:
        body = None
        if method == "POST":
            body = self._read_body()
            if body == b"" and self.headers.get("Content-Length") and \
                    int(self.headers["Content-Length"]) > MAX_BODY_BYTES:
                return  # 413 already sent
        status, headers, payload = self.gateway.handle_request(
            method, self.path, body, self._client_id()
        )
        self._send(status, headers, payload)

    def _send(self, status: int, headers: Dict[str, str],
              payload: bytes) -> None:
        try:
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.gateway.verbose:
            sys.stderr.write("pyrtos-serve: %s - %s\n"
                             % (self.address_string(), format % args))

"""Minimal HTTP JSON API over the verification pipeline and cache.

Pure stdlib (``http.server.ThreadingHTTPServer``): submit a netlist,
poll its job, fetch cached results — the "aha" shape of a verification
service, without a framework dependency the container may not have.

Endpoints (all JSON)::

    GET  /v1/health                    liveness + engine/cache info
    GET  /v1/stats                     cache + job-table statistics
    GET  /v1/metrics                   telemetry counters/gauges/
                                       histograms + cache hit/miss/
                                       evict + job table (also served
                                       as /metrics; add
                                       ?format=prometheus — or send
                                       Accept: text/plain — for the
                                       Prometheus text exposition a
                                       scraper expects)
    GET  /v1/jobs/<job_id>/progress    per-bit job progress
                                       (also /jobs/<job_id>/progress)
    POST /v1/jobs                      submit a netlist
         body: {"netlist": "<text>", "format": "eqn"|"blif"|"v",
                "mode": "extract"|"audit"|"diagnose",
                "engine": "<name>"?, "fallback": true?,
                "baseline_fingerprint": "<v3-...>"?}
         -> 202 {"job_id": ..., "fingerprint": ..., "status": ...}
            (status is "done" immediately on a cache hit; ECO
            re-submissions of an edited netlist reuse cached output
            cones and report "cones_reused" on completion)
         -> 429 + Retry-After when the bounded job queue is full
            (backpressure instead of unbounded memory growth)
    GET  /v1/jobs/<job_id>             poll a job (summary result)
    DELETE /v1/jobs/<job_id>           cancel a job (also /jobs/<id>):
                                       queued jobs cancel immediately;
                                       running jobs cancel at the next
                                       per-bit progress tick (202);
                                       finished jobs are 409
    GET  /v1/results/<fingerprint>?kind=extraction|verification|diagnosis
                                       fetch a cached artifact
                                       (&full=1 for the raw entry)

Jobs run on a fixed pool of worker threads, each through the request
pipeline of the batch runner and ECO
(:func:`repro.service.pipeline.run_mode`), which releases no GIL, so
the pool bounds *concurrency of acceptance*, not CPU parallelism —
production deployments put one process per core behind this API (the
batch runner is the in-process version of that layout).  Results are
written to the shared
:class:`~repro.service.cache.ResultCache`, so a job computed once is a
cache hit for every later submission of a structurally identical
netlist, HTTP or CLI alike.
"""

from __future__ import annotations

import itertools
import json
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import telemetry as _telemetry
from repro.engine import DEFAULT_ENGINE, registered_engines
from repro.netlist.netlist import GC_PAUSE
from repro.service.cache import KINDS, ResultCache
from repro.service.pipeline import (
    MODES,
    NETLIST_PARSERS,
    ModeOutcome,
    cached_outcome,
    run_mode,
)
from repro.service.resilience import (
    Quarantined,
    RetryPolicy,
    engine_ladder,
    run_supervised,
)

#: Submission payloads above this size are rejected outright.
MAX_NETLIST_BYTES = 8 * 1024 * 1024

#: Finished (done/error) jobs retained for polling before eviction;
#: bounds the job table of a long-running server.  Results stay
#: addressable forever through the cache (/v1/results/<fingerprint>).
MAX_FINISHED_JOBS = 1024

#: Default bound on queued (accepted, not yet running) jobs; beyond it
#: submissions get 429 + Retry-After instead of unbounded growth.
MAX_QUEUE_DEPTH = 64

#: How often the HTTP loop checks for a shutdown request.
#: ``shutdown()`` waits up to this long for the loop to notice; the
#: idle wake-ups cost nothing measurable.
SHUTDOWN_POLL_S = 0.02

#: Job states that no longer occupy a worker.
TERMINAL_STATUSES = ("done", "error", "cancelled", "quarantined")


class ServiceSaturated(RuntimeError):
    """The bounded job queue is full; retry after ``retry_after_s``."""

    def __init__(self, retry_after_s: int):
        super().__init__(f"job queue full; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class _JobCancelled(RuntimeError):
    """Raised inside the pipeline when a job's cancel flag is seen."""


@dataclass
class Job:
    """One submitted netlist working its way through the pipeline."""

    job_id: str
    mode: str
    engine: str
    fingerprint: str
    #: queued -> running -> done | error | cancelled | quarantined
    #: (running -> cancelling -> cancelled for mid-flight cancels)
    status: str = "queued"
    submitted_unix: float = field(default_factory=time.time)
    wall_time_s: Optional[float] = None
    cache: str = "miss"
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    #: ``{"done_bits": n, "total_bits": m}`` while an extraction runs
    #: (fed per completed bit by the pipeline's ``on_result`` hook).
    progress: Optional[Dict[str, Any]] = None
    #: Resolved backend + why it differs from the requested one (only
    #: set when fallback degraded the request), and how many attempts
    #: the supervision layer spent.
    engine_used: Optional[str] = None
    fallback_reason: Optional[str] = None
    attempts: Optional[int] = None
    #: Structured quarantine reason (status == "quarantined").
    reason: Optional[Dict[str, Any]] = None
    #: Client-declared fingerprint of the baseline this submission is
    #: an ECO edit of (advisory — cone reuse is automatic either way;
    #: recorded so the response names what the edit was diffed against).
    baseline_fingerprint: Optional[str] = None
    #: How many output cones the extraction served from the per-cone
    #: cache instead of rewriting (set when a fresh extraction ran).
    cones_reused: Optional[int] = None
    #: Whether engine-ladder fallback applies to this job.
    fallback: bool = False
    #: Cooperative cancellation flag, observed at progress ticks and
    #: attempt boundaries (not JSON-serializable; excluded from views).
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def view(self) -> Dict[str, Any]:
        """The JSON view: every set field but the fallback flag and
        the cancel event."""
        return {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if spec.name not in ("fallback", "cancel_event")
            and getattr(self, spec.name) is not None
        }


class ReproAPIServer:
    """The service: worker threads + job table + HTTP frontend."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8017,
        cache: Optional[ResultCache] = None,
        engine: str = DEFAULT_ENGINE,
        worker_threads: int = 2,
        telemetry: Optional[_telemetry.Telemetry] = None,
        max_queue: int = MAX_QUEUE_DEPTH,
        retry_policy: Optional[RetryPolicy] = None,
        fallback: bool = False,
    ):
        self.cache = cache if cache is not None else ResultCache()
        self.engine = engine
        #: Per-job supervision policy (attempt budget + backoff) and
        #: whether the engine ladder applies by default (a submission
        #: may override with ``"fallback": true/false``).
        self.retry_policy = retry_policy or RetryPolicy()
        self.fallback = fallback
        #: Registry every request span, job span, cache counter and
        #: progress gauge lands in; ``GET /metrics`` snapshots it.
        self.telemetry = _telemetry.resolve(telemetry)
        self._worker_count = max(1, worker_threads)
        # Entries are ``[job, netlist]`` lists, emptied by the worker
        # that takes them (see :meth:`_run_job`).
        self._queue: "queue.Queue[Optional[List[Any]]]" = queue.Queue(
            maxsize=max(1, max_queue)
        )
        self._table: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(max(1, worker_threads))
        ]
        self.httpd = ThreadingHTTPServer(
            (host, port), _make_handler(self)
        )
        self.httpd.daemon_threads = True

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Start workers + HTTP loop in background threads."""
        for worker in self._workers:
            worker.start()
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": SHUTDOWN_POLL_S},
            name="repro-http",
            daemon=True,
        )
        self._http_thread.start()

    def serve_forever(self) -> None:
        """Run in the foreground (the ``repro serve`` path)."""
        for worker in self._workers:
            worker.start()
        self.httpd.serve_forever(poll_interval=SHUTDOWN_POLL_S)

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting requests; finish or cancel queued work.

        ``drain=True`` (the default) lets the worker threads finish
        every queued and in-flight job — in-flight checkpointed chunks
        complete and land durably — before returning.  ``drain=False``
        cancels everything still queued (in-flight jobs see their
        cancel flag at the next progress tick) and returns as soon as
        the workers exit.
        """
        self.httpd.shutdown()
        self.httpd.server_close()
        if not drain:
            with self._lock:
                queued = [
                    job
                    for job in self._table.values()
                    if job.status == "queued"
                ]
                running = [
                    job
                    for job in self._table.values()
                    if job.status == "running"
                ]
            for job in queued:
                job.status = "cancelled"
            for job in running:
                job.cancel_event.set()
        for _ in self._workers:
            # The queue is bounded; a blocking put parks behind queued
            # jobs, which the workers are actively draining.
            self._queue.put(None)
        for worker in self._workers:
            if worker.ident is not None:
                worker.join()

    # -- job handling ---------------------------------------------------

    def submit(
        self,
        netlist,
        mode: str,
        engine: str,
        fallback: Optional[bool] = None,
        baseline_fingerprint: Optional[str] = None,
    ) -> Job:
        """Register a job; cache hits complete synchronously.

        Raises :class:`ServiceSaturated` (mapped to ``429`` by the
        HTTP layer) when the bounded queue is full — backpressure the
        client can act on, instead of accepting unbounded work.
        """
        fingerprint = self.cache.fingerprint(netlist)
        with self._lock:
            job = Job(
                job_id=f"job-{next(self._ids)}",
                mode=mode,
                engine=engine,
                fingerprint=fingerprint,
                fallback=self.fallback if fallback is None else fallback,
                baseline_fingerprint=baseline_fingerprint,
            )
            self._table[job.job_id] = job
            self._evict_finished_locked()
        if self._serve_from_cache(job, fingerprint):
            return job
        try:
            self._queue.put_nowait([job, netlist])
        except queue.Full:
            with self._lock:
                self._table.pop(job.job_id, None)
            self.telemetry.counter("jobs.rejected")
            raise ServiceSaturated(self.retry_after_s()) from None
        return job

    def retry_after_s(self) -> int:
        """Backpressure hint: rough time to drain the current queue."""
        depth = self._queue.qsize()
        return max(1, depth // self._worker_count)

    def cancel(self, job_id: str) -> Tuple[Optional[str], Optional[Job]]:
        """Cancel a job: ``(disposition, job)``.

        ``("ok", job)`` — cancelled (queued jobs immediately; already-
        cancelled is idempotent); ``("accepted", job)`` — a running
        job's cancel flag is set, observed at the next progress tick;
        ``("conflict", job)`` — already finished; ``(None, None)`` —
        unknown job.
        """
        with self._lock:
            job = self._table.get(job_id)
            if job is None:
                return None, None
            if job.status in ("done", "error", "quarantined"):
                return "conflict", job
            if job.status == "cancelled":
                return "ok", job
            if job.status == "queued":
                # The queue entry stays; the worker loop skips
                # already-cancelled jobs on dequeue.
                job.status = "cancelled"
                self.telemetry.counter("jobs.cancelled")
                return "ok", job
        # running / cancelling: cooperative, observed at progress ticks
        job.cancel_event.set()
        if job.status == "running":
            job.status = "cancelling"
        return "accepted", job

    def _serve_from_cache(self, job: Job, fingerprint: str) -> bool:
        outcome = cached_outcome(self.cache, job.mode, fingerprint)
        if outcome is None:
            return False
        job.status = "done"
        job.cache = "hit"
        job.wall_time_s = 0.0
        job.result = _summary(job.mode, outcome)
        return True

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            self._run_job(item)

    @GC_PAUSE
    def _run_job(self, item: List[Any]) -> None:
        """Run one dequeued ``[job, netlist]`` entry under
        :data:`~repro.netlist.netlist.GC_PAUSE`.

        The entry is emptied first: this frame then holds the only
        reference to the netlist, which is freed with the frame,
        before the pause ends.
        """
        job, netlist = item
        item.clear()
        if job.status == "cancelled":
            return  # cancelled while queued; nothing to run
        job.status = "running"
        started = time.perf_counter()
        job.progress = {
            "done_bits": 0,
            "total_bits": len(netlist.outputs),
        }
        gauge = f"job.{job.job_id}.progress"
        self.telemetry.gauge(gauge, 0.0)

        def advance(output, cone, stats):
            if job.cancel_event.is_set():
                raise _JobCancelled(job.job_id)
            done = job.progress["done_bits"] + 1
            job.progress["done_bits"] = done
            total = job.progress["total_bits"] or 1
            self.telemetry.gauge(gauge, done / total)

        def attempt(engine):
            if job.cancel_event.is_set():
                raise _JobCancelled(job.job_id)
            return run_mode(
                job.mode,
                lambda: netlist,
                job.fingerprint,
                self.cache,
                engine=engine,
                progress=advance,
            )

        ladder = engine_ladder(job.engine, fallback=job.fallback)
        with _telemetry.use(self.telemetry), self.telemetry.span(
            "job",
            job_id=job.job_id,
            mode=job.mode,
            engine=job.engine,
            fingerprint=job.fingerprint[:12],
        ) as span:
            try:
                outcome = run_supervised(
                    attempt,
                    engines=ladder,
                    policy=self.retry_policy,
                    telemetry=self.telemetry,
                    label=job.job_id,
                )
                job.result = _summary(job.mode, outcome.value)
                job.cones_reused = outcome.value.cones_reused
                job.engine_used = outcome.engine_used
                job.fallback_reason = outcome.fallback_reason
                if outcome.attempts > 1:
                    job.attempts = outcome.attempts
                job.status = "done"
            except _JobCancelled:
                job.status = "cancelled"
            except Quarantined as poison:
                job.status = "quarantined"
                job.reason = poison.reason
                job.error = poison.reason.get("error")
            except Exception as error:  # noqa: BLE001 - report it
                job.status = "error"
                job.error = f"{type(error).__name__}: {error}"
            span.annotate(status=job.status)
        self.telemetry.counter(f"jobs.{job.status}")
        job.wall_time_s = time.perf_counter() - started

    def _evict_finished_locked(self) -> None:
        """Drop the oldest terminal jobs past the retention cap.

        Called with ``self._lock`` held.  Insertion order == submission
        order, so a single forward scan finds the oldest finished jobs.
        """
        finished = [
            job_id
            for job_id, job in self._table.items()
            if job.status in TERMINAL_STATUSES
        ]
        excess = len(finished) - MAX_FINISHED_JOBS
        if excess > 0:
            for job_id in finished[:excess]:
                del self._table[job_id]
                # An evicted job's progress gauge would otherwise pin
                # the metrics payload forever.
                self.telemetry.clear_gauge(f"job.{job_id}.progress")

    def job_view(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            job = self._table.get(job_id)
        return job.view() if job is not None else None

    def progress_view(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Per-bit completion of one job (``/jobs/<id>/progress``)."""
        with self._lock:
            job = self._table.get(job_id)
        if job is None:
            return None
        progress = dict(job.progress) if job.progress is not None else {}
        done = progress.get("done_bits", 0)
        total = progress.get("total_bits")
        if job.status == "done" and total:
            done = total  # the last on_result may race the poll
        if total:
            fraction = done / total
        else:  # cache hits never enter the worker loop
            fraction = 1.0 if job.status == "done" else 0.0
        return {
            "job_id": job.job_id,
            "status": job.status,
            "done_bits": done,
            "total_bits": total,
            "fraction": fraction,
        }

    def _job_census(self) -> Dict[str, int]:
        """Jobs in the table per status."""
        with self._lock:
            return dict(Counter(job.status for job in self._table.values()))

    def metrics_view(self) -> Dict[str, Any]:
        """The ``GET /metrics`` payload: telemetry registry snapshot
        plus the cache's session counters and the job table census."""
        cache_stats = self.cache.stats()
        payload = self.telemetry.metrics()
        payload["cache"] = {
            "hits": cache_stats.hits,
            "misses": cache_stats.misses,
            "evictions": cache_stats.evictions,
            "compile_hits": cache_stats.compile_hits,
            "compile_misses": cache_stats.compile_misses,
            "cone_hits": cache_stats.cone_hits,
            "cone_misses": cache_stats.cone_misses,
            "entries": cache_stats.entries,
            "disk_bytes": cache_stats.disk_bytes,
        }
        payload["jobs"] = self._job_census()
        return payload

    def stats_view(self) -> Dict[str, Any]:
        cache_stats = self.cache.stats()
        return {
            "engine": self.engine,
            "engines_available": list(registered_engines()),
            "cache": {
                "root": cache_stats.root,
                "entries": cache_stats.entries,
                "disk_bytes": cache_stats.disk_bytes,
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
            },
            "jobs": self._job_census(),
        }


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def _summary(mode: str, outcome: ModeOutcome) -> Dict[str, Any]:
    """The job/result summary of one mode outcome."""
    summary = outcome.fields()
    if mode != "diagnose":
        summary["kind"] = "audit" if mode == "audit" else "extraction"
        return summary
    summary.pop("m", None)
    summary.pop("irreducible", None)
    summary.update(kind="diagnosis", reason=outcome.diagnosis.reason)
    return summary


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------

def _make_handler(server: "ReproAPIServer"):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-service"

        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # keep the test/CLI output clean

        # -- helpers ----------------------------------------------------

        def _send_json(
            self,
            status: int,
            payload: Dict[str, Any],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            self._last_status = status
            # sort_keys: byte-stable responses for the same state, so
            # CLI/HTTP diffing tools see real changes, not dict churn.
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _send_text(
            self, status: int, body: str, content_type: str
        ) -> None:
            self._last_status = status
            encoded = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(encoded)))
            self.end_headers()
            self.wfile.write(encoded)

        def _error(self, status: int, message: str) -> None:
            self._send_json(status, {"error": message})

        def _traced(self, method: str, route) -> None:
            """Run one request handler inside an ``http.request`` span
            on the server's registry (annotated with the status the
            handler actually sent)."""
            url = urlparse(self.path)
            with _telemetry.use(server.telemetry), server.telemetry.span(
                "http.request", method=method, path=url.path
            ) as span:
                server.telemetry.counter("http.requests")
                route(url)
                span.annotate(status=getattr(self, "_last_status", None))

        # -- GET --------------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._traced("GET", self._route_get)

        def _route_get(self, url) -> None:
            parts = [part for part in url.path.split("/") if part]
            if parts == ["v1", "health"]:
                self._send_json(
                    200,
                    {
                        "status": "ok",
                        "engine": server.engine,
                        "cache_root": str(server.cache.root),
                    },
                )
            elif parts == ["v1", "stats"]:
                self._send_json(200, server.stats_view())
            elif parts in (["v1", "metrics"], ["metrics"]):
                from repro.telemetry import prometheus

                query = parse_qs(url.query)
                if prometheus.wants_prometheus(
                    query.get("format", [None])[0],
                    self.headers.get("Accept"),
                ):
                    self._send_text(
                        200,
                        prometheus.render_prometheus(
                            server.telemetry.metrics()
                        ),
                        prometheus.CONTENT_TYPE,
                    )
                else:
                    self._send_json(200, server.metrics_view())
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "progress"
            ) or (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "progress"
            ):
                job_id = parts[2] if parts[0] == "v1" else parts[1]
                view = server.progress_view(job_id)
                if view is None:
                    self._error(404, f"unknown job {job_id!r}")
                else:
                    self._send_json(200, view)
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                view = server.job_view(parts[2])
                if view is None:
                    self._error(404, f"unknown job {parts[2]!r}")
                else:
                    self._send_json(200, view)
            elif len(parts) == 3 and parts[:2] == ["v1", "results"]:
                self._get_result(parts[2], parse_qs(url.query))
            else:
                self._error(404, f"unknown endpoint {url.path!r}")

        def _get_result(self, fingerprint: str, query: Dict) -> None:
            kind = query.get("kind", ["extraction"])[0]
            if kind not in KINDS:
                self._error(400, f"unknown kind {kind!r}; one of {KINDS}")
                return
            if query.get("full", ["0"])[0] in ("1", "true"):
                entry = server.cache.get_raw(kind, fingerprint)
                if entry is None:
                    self._error(404, f"no cached {kind} for {fingerprint}")
                else:
                    self._send_json(200, entry)
                return
            if kind == "verification":
                # Stand-alone view: must not 404 just because the
                # sibling extraction entry is gone (partial clear).
                report = server.cache.get_verification(fingerprint)
                summary = None if report is None else {
                    "kind": "verification",
                    "equivalent": report.equivalent,
                    "irreducible": report.irreducible,
                    "failing_bits": report.failing_bits,
                    "simulation_vectors": report.simulation_vectors,
                }
            else:
                mode = "extract" if kind == "extraction" else "diagnose"
                outcome = cached_outcome(server.cache, mode, fingerprint)
                summary = None if outcome is None else _summary(mode, outcome)
            if summary is None:
                self._error(404, f"no cached {kind} for {fingerprint}")
            else:
                self._send_json(200, summary)

        # -- POST -------------------------------------------------------

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._traced("POST", self._route_post)

        @GC_PAUSE
        def _route_post(self, url) -> None:
            # Body decode, parse and fingerprint run as one request
            # under the collector pause.
            if [part for part in url.path.split("/") if part] != [
                "v1", "jobs",
            ]:
                # The unread body would desync a keep-alive connection.
                self.close_connection = True
                self._error(404, f"unknown endpoint {url.path!r}")
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                self.close_connection = True
                self._error(400, "invalid Content-Length header")
                return
            if length < 0:
                # rfile.read(-1) would block until client EOF, pinning
                # this handler thread forever.
                self.close_connection = True
                self._error(400, "invalid Content-Length header")
                return
            if length > MAX_NETLIST_BYTES:
                # Replying without draining the body desynchronizes a
                # keep-alive connection; drop it instead of reading MBs.
                self.close_connection = True
                self._error(413, "netlist too large")
                return
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError:
                self._error(400, "request body is not valid JSON")
                return
            text = body.get("netlist")
            if not isinstance(text, str) or not text.strip():
                self._error(400, "missing 'netlist' text")
                return
            fmt = body.get("format", "eqn")
            if fmt not in NETLIST_PARSERS:
                self._error(400, f"unknown format {fmt!r}")
                return
            mode = body.get("mode", "audit")
            if mode not in MODES:
                self._error(400, f"unknown mode {mode!r}; one of {MODES}")
                return
            engine = body.get("engine", server.engine)
            fallback = bool(body.get("fallback", server.fallback))
            baseline = body.get("baseline_fingerprint")
            if baseline is not None and not isinstance(baseline, str):
                self._error(400, "'baseline_fingerprint' must be a string")
                return
            if engine not in registered_engines():
                self._error(400, f"unknown engine {engine!r}")
                return
            try:
                netlist = NETLIST_PARSERS[fmt](text)
            except Exception as error:  # noqa: BLE001 - surface parse errors
                self._error(
                    400, f"netlist parse failed: "
                    f"{type(error).__name__}: {error}"
                )
                return
            try:
                job = server.submit(
                    netlist,
                    mode=mode,
                    engine=engine,
                    fallback=fallback,
                    baseline_fingerprint=baseline,
                )
            except ServiceSaturated as busy:
                server.telemetry.counter("http.rejected")
                self._send_json(
                    429,
                    {
                        "error": str(busy),
                        "retry_after_s": busy.retry_after_s,
                    },
                    headers={"Retry-After": str(busy.retry_after_s)},
                )
                return
            self._send_json(202 if job.status != "done" else 200, job.view())

        # -- DELETE -----------------------------------------------------

        def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
            self._traced("DELETE", self._route_delete)

        def _route_delete(self, url) -> None:
            parts = [part for part in url.path.split("/") if part]
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                job_id = parts[2]
            elif len(parts) == 2 and parts[0] == "jobs":
                job_id = parts[1]
            else:
                self._error(404, f"unknown endpoint {url.path!r}")
                return
            disposition, job = server.cancel(job_id)
            if disposition is None:
                self._error(404, f"unknown job {job_id!r}")
            elif disposition == "conflict":
                self._send_json(
                    409,
                    {
                        "error": f"job {job_id} already {job.status}",
                        "job": job.view(),
                    },
                )
            elif disposition == "accepted":
                self._send_json(202, job.view())
            else:
                self._send_json(200, job.view())

    return Handler


def serve(
    host: str = "127.0.0.1",
    port: int = 8017,
    cache_dir: Optional[str] = None,
    engine: str = DEFAULT_ENGINE,
    worker_threads: int = 2,
    telemetry: Optional[_telemetry.Telemetry] = None,
    max_queue: int = MAX_QUEUE_DEPTH,
    retries: Optional[int] = None,
    fallback: bool = False,
) -> ReproAPIServer:
    """Build (but do not start) a configured server — the CLI entry.

    ``retries`` caps the supervision layer's attempt budget per job
    (``None`` keeps the :class:`RetryPolicy` default); ``fallback``
    turns on the engine ladder for submissions that do not say
    otherwise.  Call :meth:`ReproAPIServer.serve_forever` to block, or
    :meth:`ReproAPIServer.start` to run in background threads (tests).
    """
    cache = ResultCache(cache_dir) if cache_dir is not None else ResultCache()
    policy = None if retries is None else RetryPolicy(
        max_attempts=max(1, retries)
    )
    return ReproAPIServer(
        host=host,
        port=port,
        cache=cache,
        engine=engine,
        worker_threads=worker_threads,
        telemetry=telemetry,
        max_queue=max_queue,
        retry_policy=policy,
        fallback=fallback,
    )
